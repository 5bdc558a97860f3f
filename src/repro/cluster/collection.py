"""Simulated data-collection campaigns (App C.3).

Reproduces the paper's methodology:

* **Isolation campaign** — every supported (workload, platform) pair is
  run up to 50 repetitions within a 30-second budget and the wall-clock
  mean recorded; pairs that crash or exceed the timeout are omitted.
* **Interference campaign** — per platform, ``sets_per_degree`` random
  sets of 2/3/4 workloads run simultaneously for 30 seconds in a loop.
  A set containing a crashing workload is dropped entirely; a workload
  that times out is dropped but its co-runners keep their observations
  (timed-out workloads still interfere).

With the full inventory this yields ≈47k isolation + ≈324k interference
observations (101k/122k/100k across 2/3/4-way), matching the scale and
attrition shape of the paper's 53,637 + 357,333 (99k/139k/119k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..platforms.platform import generate_platforms
from ..platforms.features import platform_feature_matrix
from ..workloads.workload import generate_workloads, workload_feature_matrix
from .dataset import MAX_INTERFERERS, RuntimeDataset
from .performance import GroundTruthPerformanceModel, PerformanceModelConfig

__all__ = [
    "CollectionConfig",
    "ClusterCollector",
    "collect_dataset",
    "make_cluster",
    "synthetic_fleet_dataset",
]


@dataclass(frozen=True)
class CollectionConfig:
    """Campaign parameters (paper values as defaults)."""

    #: Per-benchmark execution budget, seconds.
    time_budget_s: float = 30.0
    #: Maximum averaging repetitions within the budget.
    max_repetitions: int = 50
    #: Random co-running sets per degree per platform (paper: 250).
    sets_per_degree: int = 250
    #: Interference degrees collected (number of simultaneous workloads).
    degrees: tuple[int, ...] = (2, 3, 4)
    #: Per-member timeout probability under co-execution is
    #: ``base * (degree - 1)^2`` — random program alignment means a member
    #: can fail to complete a single iteration within the budget even when
    #: its mean runtime fits. Drives the paper's attrition pattern, where
    #: 4-way yields *fewer* usable observations than 3-way (App C.3).
    interference_timeout_base: float = 0.055
    #: Per-set crash probability is ``rate * degree``; a crash drops the
    #: entire set ("that entire set was excluded", App C.3).
    set_crash_rate: float = 0.01


#: Largest population ``Generator.choice(replace=False)`` samples with
#: Floyd's algorithm for every sample size; above it numpy may switch to
#: a tail shuffle that :func:`_choice_sets` does not reproduce.
_FLOYD_MAX_POPULATION = 10000
_LOW32 = np.uint64(0xFFFFFFFF)


def _read_words32(bit_generator, n: int) -> np.ndarray:
    """The next ``>= n`` 32-bit words of the stream (whole 64-bit outputs,
    low half first), as uint64."""
    raw = bit_generator.random_raw((n + 1) // 2)
    words = np.empty(2 * len(raw), dtype=np.uint64)
    words[0::2] = raw & _LOW32
    words[1::2] = raw >> np.uint64(32)
    return words


def _bounded_draws(bit_generator, bounds: np.ndarray) -> np.ndarray:
    """numpy's ``random_bounded_uint64(0, b)`` for each ``b`` in turn.

    Each draw is Lemire's multiply-shift on the generator's 32-bit
    stream, which hands out the low then the high half of every 64-bit
    output and keeps the unused half buffered in the state's
    ``has_uint32``/``uinteger``. A bound of 0 returns 0 without reading
    the stream; a rejected draw re-reads the next word until accepted,
    shifting every later draw. On return the generator state is exactly
    what the same draws made one by one would leave, including the stale
    ``uinteger`` after the buffered half has been consumed.
    """
    state = bit_generator.state
    live = np.flatnonzero(bounds)
    excl = bounds[live].astype(np.uint64) + np.uint64(1)
    threshold = np.uint64(1 << 32) % excl
    n = len(live)
    buffered = [state["uinteger"]] if state["has_uint32"] else []
    stream = np.concatenate([
        np.array(buffered, dtype=np.uint64),
        _read_words32(bit_generator, n - len(buffered)),
    ])
    values = np.empty(n, dtype=np.uint64)
    used = i = 0
    while i < n:
        m = stream[used : used + n - i] * excl[i:]
        rejected = np.flatnonzero((m & _LOW32) < threshold[i:])
        if not len(rejected):
            values[i:] = m >> np.uint64(32)
            used += n - i
            break
        r = int(rejected[0])
        k = i + r
        values[i:k] = m[:r] >> np.uint64(32)
        used += r + 1
        # Draw k was rejected: redraw its bound from the following words.
        while True:
            # Every draw still pending needs at least one more word.
            if len(stream) < used + n - k:
                stream = np.concatenate(
                    [stream, _read_words32(bit_generator, used + n - k - len(stream))]
                )
            mk = stream[used] * excl[k]
            used += 1
            if (mk & _LOW32) >= threshold[k]:
                break
        values[k] = mk >> np.uint64(32)
        i = k + 1
    state = bit_generator.state
    state["has_uint32"] = len(stream) - used
    if len(stream):
        state["uinteger"] = int(stream[-1])
    bit_generator.state = state
    out = np.zeros(len(bounds), dtype=np.intp)
    out[live] = values
    return out


def _choice_sets(
    rng: np.random.Generator, valid: np.ndarray, degree: int, n_sets: int
) -> np.ndarray:
    """``n_sets`` rows of ``rng.choice(valid, size=degree, replace=False)``.

    Bit-for-bit the rows (and the generator state) that many scalar
    ``choice`` calls produce, drawn in one pass: numpy samples without
    replacement by Floyd's algorithm — one draw in ``[0, j]`` for each
    ``j = pop-degree .. pop-1``, a duplicate taking ``j`` itself — then
    Fisher–Yates shuffles the sample with one draw in ``[0, i]`` for each
    ``i = degree-1 .. 1``. The bounds never depend on the values, so
    every set's draws come from one :func:`_bounded_draws` call and the
    slots are then resolved vectorized over sets.
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        raise TypeError(
            f"co-runner draws replay PCG64's stream, not "
            f"{type(rng.bit_generator).__name__}'s"
        )
    pop = len(valid)
    if degree > pop:
        raise ValueError(
            "Cannot take a larger sample than population when replace is False"
        )
    if pop > _FLOYD_MAX_POPULATION:
        raise ValueError(
            f"population {pop} exceeds {_FLOYD_MAX_POPULATION}; "
            "numpy's choice may not use Floyd's algorithm there"
        )
    bounds = np.concatenate(
        [np.arange(pop - degree, pop), np.arange(degree - 1, 0, -1)]
    )
    draws = _bounded_draws(rng.bit_generator, np.tile(bounds, n_sets)).reshape(
        n_sets, len(bounds)
    )
    idx = np.empty((n_sets, degree), dtype=np.intp)
    for t in range(degree):
        val = draws[:, t]
        duplicate = (idx[:, :t] == val[:, None]).any(axis=1)
        idx[:, t] = np.where(duplicate, pop - degree + t, val)
    rows = np.arange(n_sets)
    for col, i in zip(range(degree, len(bounds)), range(degree - 1, 0, -1)):
        k = draws[:, col]
        picked = idx[rows, k]
        idx[rows, k] = idx[:, i].copy()
        idx[:, i] = picked
    return valid[idx]


class ClusterCollector:
    """Runs collection campaigns against a ground-truth model."""

    def __init__(
        self,
        model: GroundTruthPerformanceModel,
        config: CollectionConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or CollectionConfig()

    # ------------------------------------------------------------------
    def collect_isolation(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Benchmark every valid pair in isolation.

        Returns ``(w_idx, p_idx, runtime_seconds)`` for pairs that neither
        crashed nor timed out.
        """
        cfg = self.config
        nw = len(self.model.workloads)
        npf = len(self.model.platforms)
        w_grid, p_grid = np.meshgrid(np.arange(nw), np.arange(npf), indexing="ij")
        w_flat, p_flat = w_grid.ravel(), p_grid.ravel()

        ok = ~self.model.crash_table[w_flat, p_flat]
        # Timeout: the true isolation runtime exceeds the budget.
        true_log10 = self.model.isolation_log10(w_flat, p_flat)
        ok &= true_log10 <= np.log10(cfg.time_budget_s)
        w_flat, p_flat, true_log10 = w_flat[ok], p_flat[ok], true_log10[ok]

        reps = np.clip(
            np.floor(cfg.time_budget_s / 10.0**true_log10),
            1,
            cfg.max_repetitions,
        )
        runtime = self.model.sample_runtime(
            w_flat, p_flat, None, rng, averaging_reps=reps
        )
        return w_flat, p_flat, runtime

    # ------------------------------------------------------------------
    def collect_interference(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run random co-running sets per platform.

        Returns ``(w_idx, p_idx, interferers, runtime_seconds)``. Sets are
        sampled uniformly from workloads that run on the platform (no
        crash, isolation runtime within budget — mirroring that the paper
        sampled from benchmarks known to work).
        """
        cfg = self.config
        npf = len(self.model.platforms)
        budget_log10 = np.log10(cfg.time_budget_s)

        out_w: list[np.ndarray] = []
        out_p: list[np.ndarray] = []
        out_k: list[np.ndarray] = []
        out_r: list[np.ndarray] = []

        for j in range(npf):
            valid = np.flatnonzero(
                (~self.model.crash_table[:, j])
                & (self.model.log10_isolation[:, j] <= budget_log10)
            )
            if len(valid) < max(cfg.degrees):
                continue
            for degree in cfg.degrees:
                # (sets, degree) matrix of distinct workloads per row.
                sets = _choice_sets(rng, valid, degree, cfg.sets_per_degree)
                n_sets = sets.shape[0]
                # Failure injection (App C.3): whole-set crashes and
                # per-member alignment timeouts, both growing with degree.
                set_crashed = rng.random(n_sets) < cfg.set_crash_rate * degree
                member_timeout = (
                    rng.random((n_sets, degree))
                    < cfg.interference_timeout_base * (degree - 1) ** 2
                )
                # Each member observes the rest of its set as interference.
                # Rows are slot-major (slot ``s`` owns rows s*n_sets up to
                # (s+1)*n_sets), and truth is scored once for the block.
                rest = [[c for c in range(degree) if c != s] for s in range(degree)]
                targets_all = sets.T.ravel()
                interf_all = np.full(
                    (degree * n_sets, MAX_INTERFERERS), -1, dtype=int
                )
                interf_all[:, : degree - 1] = (
                    sets[:, rest]
                    .transpose(1, 0, 2)
                    .reshape(degree * n_sets, degree - 1)
                )
                p_arr = np.full(n_sets, j)
                truth_all = self.model.true_log10(
                    targets_all, np.full(degree * n_sets, j), interf_all
                )
                for slot in range(degree):
                    rows = slice(slot * n_sets, (slot + 1) * n_sets)
                    targets, interf = targets_all[rows], interf_all[rows]
                    true_log10 = truth_all[rows]
                    # Timed-out members yield no observation (but their
                    # co-runners were still interfered with, and keep theirs).
                    alive = (
                        (true_log10 <= budget_log10)
                        & ~set_crashed
                        & ~member_timeout[:, slot]
                    )
                    if not alive.any():
                        continue
                    reps = np.clip(
                        np.floor(cfg.time_budget_s / 10.0 ** true_log10[alive]),
                        1,
                        cfg.max_repetitions,
                    )
                    runtime = 10.0 ** self.model.measure_log10(
                        true_log10[alive], p_arr[alive], interf[alive], rng,
                        averaging_reps=reps,
                    )
                    out_w.append(targets[alive])
                    out_p.append(p_arr[alive])
                    out_k.append(interf[alive])
                    out_r.append(runtime)

        if not out_w:
            empty = np.empty(0, dtype=int)
            return empty, empty, np.empty((0, MAX_INTERFERERS), dtype=int), np.empty(0)
        return (
            np.concatenate(out_w),
            np.concatenate(out_p),
            np.concatenate(out_k),
            np.concatenate(out_r),
        )

    # ------------------------------------------------------------------
    def collect(self, rng: np.random.Generator) -> RuntimeDataset:
        """Full campaign: isolation + interference, one dataset."""
        iso_w, iso_p, iso_r = self.collect_isolation(rng)
        int_w, int_p, int_k, int_r = self.collect_interference(rng)

        iso_k = np.full((len(iso_w), MAX_INTERFERERS), -1, dtype=int)
        w_feat, w_names = workload_feature_matrix(self.model.workloads)
        p_feat, p_names = platform_feature_matrix(self.model.platforms)
        return RuntimeDataset(
            w_idx=np.concatenate([iso_w, int_w]).astype(np.int64),
            p_idx=np.concatenate([iso_p, int_p]).astype(np.int64),
            interferers=np.concatenate([iso_k, int_k]).astype(np.int64),
            runtime=np.concatenate([iso_r, int_r]),
            workload_features=w_feat,
            platform_features=p_feat,
            workloads=self.model.workloads,
            platforms=self.model.platforms,
            workload_feature_names=w_names,
            platform_feature_names=p_names,
        )


def make_cluster(
    seed: int = 0,
    n_workloads: int | None = None,
    n_devices: int | None = None,
    n_runtimes: int | None = None,
    performance_config: PerformanceModelConfig | None = None,
) -> GroundTruthPerformanceModel:
    """Build a (possibly miniature) simulated cluster.

    ``None`` limits reproduce the paper-scale inventory (249 workloads,
    24 devices × 10 runtimes → 220 platforms). Tests and fast benches pass
    small limits; workloads/devices are subsampled with stride so every
    suite and device class stays represented.
    """
    from ..platforms.devices import DEVICES
    from ..platforms.runtimes import RUNTIMES

    rng = np.random.default_rng(seed)
    workloads = generate_workloads(rng)
    if n_workloads is not None and n_workloads < len(workloads):
        keep = np.linspace(0, len(workloads) - 1, n_workloads).astype(int)
        workloads = [workloads[i] for i in keep]
        for new_idx, w in enumerate(workloads):
            w.index = new_idx

    devices = DEVICES
    if n_devices is not None and n_devices < len(devices):
        keep = np.linspace(0, len(devices) - 1, n_devices).astype(int)
        devices = [devices[i] for i in keep]
    runtimes = RUNTIMES
    if n_runtimes is not None and n_runtimes < len(runtimes):
        keep = np.linspace(0, len(runtimes) - 1, n_runtimes).astype(int)
        runtimes = [runtimes[i] for i in keep]

    platforms = generate_platforms(devices, runtimes)
    return GroundTruthPerformanceModel(
        workloads, platforms, rng, config=performance_config
    )


def synthetic_fleet_dataset(
    n_workloads: int,
    n_platforms: int,
    n_observations: int | None = None,
    seed: int = 0,
    n_workload_features: int = 20,
    n_platform_features: int = 12,
) -> RuntimeDataset:
    """A runtime dataset with the published schema at arbitrary scale.

    The trace collector enumerates real (device, runtime) inventories and
    tops out near the paper's 249×220 grid; fleet-scale scenarios
    (e.g. ``fleet-large``'s 32768×4096) instead draw features, indices,
    and log-normal runtimes directly. Shapes, index distributions, and the
    2/3/4-way interference mix match the collected schema, so everything
    downstream — sparse training, calibration, serving — runs unchanged.
    """
    if n_observations is None:
        n_observations = 16 * max(n_workloads, n_platforms)
    rng = np.random.default_rng(seed)
    w_idx = rng.integers(0, n_workloads, n_observations)
    p_idx = rng.integers(0, n_platforms, n_observations)
    interferers = np.full((n_observations, MAX_INTERFERERS), -1, dtype=np.intp)
    degree = rng.integers(1, 5, n_observations)
    for d in (2, 3, 4):
        rows = np.flatnonzero(degree == d)
        interferers[rows[:, None], np.arange(d - 1)[None, :]] = rng.integers(
            0, n_workloads, (len(rows), d - 1)
        )
    return RuntimeDataset(
        w_idx=w_idx.astype(np.int64),
        p_idx=p_idx.astype(np.int64),
        interferers=interferers.astype(np.int64),
        runtime=np.exp(rng.normal(0.0, 1.0, n_observations)),
        workload_features=rng.normal(size=(n_workloads, n_workload_features)),
        platform_features=rng.normal(size=(n_platforms, n_platform_features)),
    )


def collect_dataset(
    seed: int = 0,
    n_workloads: int | None = None,
    n_devices: int | None = None,
    n_runtimes: int | None = None,
    sets_per_degree: int = 250,
    performance_config: PerformanceModelConfig | None = None,
) -> RuntimeDataset:
    """One-call convenience: build a cluster and run the full campaign."""
    model = make_cluster(
        seed=seed,
        n_workloads=n_workloads,
        n_devices=n_devices,
        n_runtimes=n_runtimes,
        performance_config=performance_config,
    )
    collector = ClusterCollector(
        model, CollectionConfig(sets_per_degree=sets_per_degree)
    )
    return collector.collect(np.random.default_rng(seed + 1))
