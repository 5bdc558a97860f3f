"""Ground-truth performance model for the simulated cluster.

This module replaces the physical testbed of Fig 3. It assigns every
(workload, platform, interference-set) tuple a *true* runtime with the same
structure the paper observes in its measurements:

**Isolation runtime** (log10 seconds) is log-additive — the justification
for the paper's log objective (Sec 3.2):

    log10 C(i,j) = d_i                      (workload difficulty)
                 + s_j                      (platform slowness)
                 + m_i · c_j                (instruction-mix × per-category cost)
                 + cache_penalty(i, j)      (nonlinear working-set effect)
                 + u_i · q_j                (idiosyncratic low-rank residual)

The mix term and cache penalty are (noisily) predictable from the side
features, which is what makes features valuable (Fig 4b); the ``u·q``
residual is *not* a function of features, which is why Pitot's learned
features φ are essential (App D.2, q=0 ablation).

**Interference** follows the paper's susceptibility/magnitude structure
(Sec 3.4) with two true contention types — CPU/scheduler and
memory/cache — each with a platform capacity threshold, so interference is
small until co-runners saturate the resource (the behaviour motivating the
activation α in Eq. 9). Weak devices and interpreters amplify contention
(Fig 12d). 4-way tails reach ~20× (Fig 1).

**Noise** is multiplicative (log-normal) and heteroscedastic: it grows
with the number of co-runners and with the device's ``noise_scale``, which
is what makes per-degree calibration pools worthwhile (Sec 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..platforms.platform import Platform
from ..workloads.workload import Workload

__all__ = ["GroundTruthPerformanceModel", "PerformanceModelConfig"]


@dataclass(frozen=True)
class PerformanceModelConfig:
    """Tunable knobs of the ground-truth generator.

    Defaults are calibrated so the synthetic dataset reproduces Fig 1's
    slowdown histogram shape: median ~1.1–1.5×, tails to ~20×.
    """

    #: Scale of the idiosyncratic low-rank residual (per factor).
    residual_scale: float = 0.045
    #: Rank of the idiosyncratic residual.
    residual_rank: int = 3
    #: Log10 penalty per unit of working-set overflow beyond cache.
    cache_penalty_coef: float = 0.028
    #: Strength multiplier on all interference.
    interference_strength: float = 1.0
    #: Baseline log10 noise sigma (≈3% runtime jitter at degree 1).
    noise_base: float = 0.013
    #: Extra noise sigma per interfering workload.
    noise_per_interferer: float = 0.014
    #: Probability of a one-sided outlier (scheduling hiccup) per obs.
    outlier_prob: float = 0.01
    #: Outlier magnitude upper bound (log10).
    outlier_max: float = 0.18


class GroundTruthPerformanceModel:
    """Deterministic ground truth + stochastic measurement model.

    All structural randomness (cost profiles, residual factors, crash
    table) is drawn once at construction from ``rng``; measurement noise
    is drawn per call from the generator passed to :meth:`sample_runtime`.
    """

    def __init__(
        self,
        workloads: list[Workload],
        platforms: list[Platform],
        rng: np.random.Generator,
        config: PerformanceModelConfig | None = None,
    ) -> None:
        self.workloads = workloads
        self.platforms = platforms
        self.config = config or PerformanceModelConfig()
        cfg = self.config
        nw, npf = len(workloads), len(platforms)

        # ---------------- isolation structure ----------------
        d = np.array([w.log10_ref_seconds for w in workloads])
        s = np.array(
            [-p.device.log10_speed + p.runtime.log10_slowdown for p in platforms]
        )

        mix = np.stack([w.category_mix for w in workloads])  # (Nw, ncat)
        ncat = mix.shape[1]
        from ..workloads.opcodes import OpcodeCategory

        cats = list(OpcodeCategory)
        # Platform per-category log10 cost deviations: runtime bias + a
        # device-level profile (weak FPUs on low-end parts, etc.).
        cost = np.zeros((npf, ncat))
        for j, plat in enumerate(platforms):
            for ci, cat in enumerate(cats):
                cost[j, ci] += plat.runtime.category_bias.get(cat, 0.0)
            dev = plat.device
            fp_weak = max(0.0, -dev.log10_speed - 0.6) * 0.25
            cost[j, cats.index(OpcodeCategory.FLOAT_ARITH)] += fp_weak
            cost[j, cats.index(OpcodeCategory.FLOAT_SPECIAL)] += fp_weak * 1.4
            if dev.is_mcu:
                # No OS: control flow and syscall-ish ops relatively cheap.
                cost[j, cats.index(OpcodeCategory.CONTROL)] -= 0.15
            # Small device-specific jitter (compiler/OS quirks).
            cost[j] += rng.normal(0.0, 0.02, size=ncat)
        # Center the mix so the cost term is a deviation, not a second
        # global difficulty term.
        mix_centered = mix - mix.mean(axis=0, keepdims=True)
        interaction = mix_centered @ cost.T * 3.0  # (Nw, Np)

        # Working-set vs cache-size nonlinearity.
        total_ops = np.array([max(w.opcode_counts.sum(), 1.0) for w in workloads])
        mem_pressure = np.array([w.memory_pressure for w in workloads])
        ws = np.clip(np.log2(total_ops) * 0.55 + mem_pressure * 6.0, 4.0, 26.0)
        cache = np.array(
            [
                np.log2(
                    (p.device.l3_kb or 0.0)
                    + (p.device.l2_kb or 0.0)
                    + (p.device.l1d_kb or 16.0)
                )
                for p in platforms
            ]
        )
        overflow = np.maximum(ws[:, None] - (cache[None, :] + 6.0), 0.0)
        cache_term = cfg.cache_penalty_coef * overflow * mem_pressure[:, None]

        u = rng.normal(0.0, cfg.residual_scale, size=(nw, cfg.residual_rank))
        q = rng.normal(0.0, 1.0, size=(npf, cfg.residual_rank))
        residual = u @ q.T

        #: (Nw, Np) noise-free isolation log10 runtimes.
        self.log10_isolation: np.ndarray = (
            d[:, None] + s[None, :] + interaction + cache_term + residual
        )

        # ---------------- interference structure ----------------
        # Magnitudes: how much contention workload k *generates*.
        compute_p = np.array([w.compute_pressure for w in workloads])
        io_p = np.array([w.io_pressure for w in workloads])
        self._mag = np.stack(
            [compute_p, np.clip(mem_pressure + 0.3 * io_p, 0, 1.2)], axis=1
        )  # (Nw, 2)
        # Susceptibilities: how much workload i *suffers* per type. The
        # lognormal multiplier gives a heavy right tail — a minority of
        # workloads are dramatically interference-sensitive, producing the
        # 10–20x extremes of Fig 1.
        sus_tail = np.exp(rng.normal(0.0, 0.5, size=(nw, 2)))
        self._sus = (
            np.stack(
                [0.25 + 0.75 * compute_p, np.clip(0.15 + mem_pressure, 0, 1.2)],
                axis=1,
            )
            * sus_tail
        )  # (Nw, 2)

        plat_contention = np.array(
            [
                p.device.contention_scale * p.runtime.contention_factor
                for p in platforms
            ]
        )
        # Per-platform scale of each contention type: memory contention
        # dominates on small-cache devices, CPU contention on few-core.
        cores = np.array([p.device.cores for p in platforms], dtype=float)
        self._plat_scale = np.stack(
            [
                0.22 * plat_contention * (4.0 / np.maximum(cores, 1.0)) ** 0.5,
                0.45 * plat_contention,
            ],
            axis=1,
        ) * cfg.interference_strength  # (Np, 2)
        # Capacity thresholds: contention "free" until co-runners exceed
        # spare resources (CPU: spare cores; memory: shared-cache slack).
        self._threshold = np.stack(
            [np.maximum(cores - 1.0, 0.25) * 0.55, 0.25 + 0.06 * cache], axis=1
        )  # (Np, 2)

        # ---------------- failure table ----------------
        # ~2% of (workload, platform) combinations crash (implementation
        # bugs, App C.3); MCU additionally rejects large-footprint jobs.
        crash = rng.random((nw, npf)) < 0.02
        for j, plat in enumerate(platforms):
            if plat.device.is_mcu:
                crash[:, j] |= ws > 14.0
        self.crash_table: np.ndarray = crash

        self._noise_scale = np.array([p.device.noise_scale for p in platforms])

    # ------------------------------------------------------------------
    # True (noise-free) quantities
    # ------------------------------------------------------------------
    def isolation_log10(self, w_idx: np.ndarray, p_idx: np.ndarray) -> np.ndarray:
        """Noise-free isolation log10 runtime for index arrays."""
        return self.log10_isolation[np.asarray(w_idx), np.asarray(p_idx)]

    def interference_log10(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray,
    ) -> np.ndarray:
        """True log10 *slowdown* caused by co-runners.

        Parameters
        ----------
        w_idx, p_idx:
            ``(n,)`` target workload / platform indices.
        interferers:
            ``(n, max_k)`` interferer workload indices, ``-1``-padded.

        For each true contention type ``t``:
        ``slowdown_t = sus[i,t] * scale[j,t] * act(G, τ)`` where
        ``G = Σ_k mag[k,t]``, ``act(G, τ) = max(G − τ, 0) + 0.06 G`` — a
        leaky threshold: a small slowdown leaks through below capacity,
        the bulk appears once co-runners exceed it, and zero interferers
        give exactly zero.
        """
        w_idx = np.asarray(w_idx)
        p_idx = np.asarray(p_idx)
        interferers = np.atleast_2d(np.asarray(interferers))
        valid = interferers >= 0
        safe = np.where(valid, interferers, 0)
        mags = self._mag[safe] * valid[..., None]  # (n, max_k, 2)
        total = mags.sum(axis=1)  # (n, 2)
        over = total - self._threshold[p_idx]
        act = np.maximum(over, 0.0) + 0.06 * total
        sus = self._sus[w_idx] * self._plat_scale[p_idx]
        raw = (sus * act).sum(axis=1)
        # Soft saturation: co-scheduling cannot slow a job indefinitely —
        # the scheduler still shares time — so extremes flatten near ~25x.
        cap = 1.45
        return np.where(raw > 0, cap * np.tanh(raw / cap), raw)

    def true_log10(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
    ) -> np.ndarray:
        """Noise-free log10 runtime including interference."""
        base = self.isolation_log10(w_idx, p_idx)
        if interferers is None:
            return base
        return base + self.interference_log10(w_idx, p_idx, interferers)

    # ------------------------------------------------------------------
    # Measurement model
    # ------------------------------------------------------------------
    def sample_log10(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        rng: np.random.Generator,
        averaging_reps: np.ndarray | None = None,
    ) -> np.ndarray:
        """Measured log10 runtime: truth + heteroscedastic noise.

        ``averaging_reps`` models the collection procedure (each benchmark
        repeated up to 50× within 30 s and averaged), shrinking noise by
        ``sqrt(reps)``.
        """
        truth = self.true_log10(w_idx, p_idx, interferers)
        return self.measure_log10(truth, p_idx, interferers, rng, averaging_reps)

    def measure_log10(
        self,
        truth: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        rng: np.random.Generator,
        averaging_reps: np.ndarray | None = None,
    ) -> np.ndarray:
        """The measurement step of :meth:`sample_log10` on known truth.

        Draws normal noise, then outlier flags, then outlier magnitudes —
        one call each, in that order — so callers that compute
        :meth:`true_log10` once for many rows consume the stream exactly
        as :meth:`sample_log10` would.
        """
        cfg = self.config
        p_idx = np.asarray(p_idx)
        if interferers is None:
            n_int = np.zeros(len(truth))
        else:
            n_int = (np.atleast_2d(interferers) >= 0).sum(axis=1).astype(float)
        sigma = (
            (cfg.noise_base + cfg.noise_per_interferer * n_int)
            * self._noise_scale[p_idx]
        )
        if averaging_reps is not None:
            sigma = sigma / np.sqrt(np.maximum(averaging_reps, 1.0))
        noise = rng.normal(0.0, 1.0, size=truth.shape) * sigma
        # One-sided outliers (a straggler repetition drags the mean up).
        out_p = cfg.outlier_prob * (1.0 + n_int)
        outlier = (rng.random(truth.shape) < out_p) * rng.uniform(
            0.0, cfg.outlier_max, size=truth.shape
        )
        return truth + noise + outlier

    def sample_runtime(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        rng: np.random.Generator,
        averaging_reps: np.ndarray | None = None,
    ) -> np.ndarray:
        """Measured runtime in seconds."""
        return 10.0 ** self.sample_log10(
            w_idx, p_idx, interferers, rng, averaging_reps
        )
