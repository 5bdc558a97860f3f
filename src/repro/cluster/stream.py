"""Streaming observation ingestion for the continual-learning lifecycle.

The collection campaign (:mod:`repro.cluster.collection`) is a batch
process: it runs once and produces a frozen :class:`RuntimeDataset`. A
deployed fleet keeps producing ``(workload, platform, interferers,
runtime)`` records after that — and conformal validity only holds while
the calibration set matches the serving distribution (Gui et al., 2023),
so those records have to flow somewhere.

:class:`ObservationBuffer` is that somewhere: a bounded, per-pool rolling
window over the most recent observations. Pools are interference degrees
(1..4) — the same conditioning variable the conformal layer calibrates
on — so each pool's window is an approximately-exchangeable sample of
the *current* serving distribution for that pool, ready to be handed to
:meth:`window_dataset` for warm-start training and rolling
recalibration. Per-pool drift statistics (mean log-runtime shift against
a frozen reference) give the lifecycle loop a cheap trigger signal
without touching model weights.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dataset import MAX_INTERFERERS, RuntimeDataset, pad_interferers

__all__ = ["ObservationBuffer", "PoolDriftStat"]


@dataclass(frozen=True)
class PoolDriftStat:
    """Drift summary for one calibration pool's rolling window."""

    pool: int
    #: Observations currently buffered for the pool.
    count: int
    #: Mean log-runtime of the buffered window.
    window_mean: float
    #: Reference mean log-runtime (NaN when no reference is set).
    reference_mean: float
    #: ``window_mean − reference_mean`` (NaN without a reference). Under a
    #: multiplicative runtime drift ``C → m·C`` this converges to
    #: ``log m``.
    shift: float
    #: ``|shift|`` in reference standard deviations (NaN without a
    #: reference); a scale-free "how many sigmas did the pool move".
    score: float


#: One buffered record: (sequence id, workload, platform, interferer
#: tuple, runtime seconds).
_Record = tuple[int, int, int, tuple[int, ...], float]


class ObservationBuffer:
    """Bounded per-pool rolling window over streamed runtime records.

    Parameters
    ----------
    window:
        Maximum records retained per pool; older records are evicted
        FIFO, bounding both memory and staleness (a deployed buffer
        forgets pre-drift regimes at the rate it observes).
    reference:
        Optional dataset whose per-pool log-runtime statistics anchor
        :meth:`drift_stats` (typically the calibration split the serving
        predictor was calibrated on). Without it, drift statistics are
        reported as NaN — counts still work.
    """

    def __init__(
        self, window: int = 2000, reference: RuntimeDataset | None = None
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._pools: dict[int, deque[_Record]] = {}
        self._reference: dict[int, tuple[float, float]] = {}
        self._seq = 0
        self.total_ingested = 0
        if reference is not None:
            self.set_reference(reference)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        runtime: np.ndarray,
    ) -> int:
        """Append a batch of observations; returns the rows ingested.

        ``interferers`` uses the dataset's ``(n, MAX_INTERFERERS)``
        ``-1``-padded convention (``None`` means all-isolation). Each row
        lands in its interference-degree pool's window, evicting the
        oldest record once the window is full.
        """
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        runtime = np.asarray(runtime, dtype=np.float64)
        n = len(runtime)
        if not (len(w_idx) == len(p_idx) == n):
            raise ValueError("observation arrays must share length")
        if not np.all(np.isfinite(runtime) & (runtime > 0)):
            raise ValueError("runtimes must be positive and finite")
        if interferers is None:
            interferers = np.full((n, MAX_INTERFERERS), -1, dtype=np.intp)
        else:
            interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
            if interferers.shape != (n, MAX_INTERFERERS):
                raise ValueError(
                    f"interferers must be (n, {MAX_INTERFERERS}), "
                    f"got {interferers.shape}"
                )
        pools = 1 + (interferers >= 0).sum(axis=1)
        for i in range(n):
            co = tuple(int(x) for x in interferers[i] if x >= 0)
            record = (
                self._seq,
                int(w_idx[i]),
                int(p_idx[i]),
                co,
                float(runtime[i]),
            )
            self._pools.setdefault(
                int(pools[i]), deque(maxlen=self.window)
            ).append(record)
            self._seq += 1
        self.total_ingested += n
        return n

    def ingest_dataset(self, ds: RuntimeDataset) -> int:
        """Ingest every row of a dataset (trace-replay convenience)."""
        return self.ingest(ds.w_idx, ds.p_idx, ds.interferers, ds.runtime)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def n_buffered(self, pool: int | None = None) -> int:
        """Buffered record count, total or for one pool."""
        if pool is not None:
            return len(self._pools.get(pool, ()))
        return sum(len(q) for q in self._pools.values())

    def pools(self) -> list[int]:
        """Pools with at least one buffered record, sorted."""
        return sorted(p for p, q in self._pools.items() if q)

    def clear(self) -> None:
        """Drop every buffered record (reference statistics are kept)."""
        self._pools.clear()

    # ------------------------------------------------------------------
    # Drift statistics
    # ------------------------------------------------------------------
    def set_reference(self, dataset: RuntimeDataset) -> None:
        """Anchor drift statistics to a dataset's per-pool distribution."""
        log_rt = dataset.log_runtime
        degree = dataset.degree
        self._reference = {}
        for pool in np.unique(degree):
            rows = log_rt[degree == pool]
            self._reference[int(pool)] = (
                float(rows.mean()),
                float(rows.std()),
            )

    def drift_stats(self) -> dict[int, PoolDriftStat]:
        """Per-pool :class:`PoolDriftStat` for every non-empty window."""
        stats: dict[int, PoolDriftStat] = {}
        for pool in self.pools():
            window_mean = float(
                np.mean([np.log(rec[4]) for rec in self._pools[pool]])
            )
            ref = self._reference.get(pool)
            if ref is None:
                ref_mean = shift = score = float("nan")
            else:
                ref_mean, ref_std = ref
                shift = window_mean - ref_mean
                score = abs(shift) / max(ref_std, 1e-12)
            stats[pool] = PoolDriftStat(
                pool=pool,
                count=len(self._pools[pool]),
                window_mean=window_mean,
                reference_mean=ref_mean,
                shift=shift,
                score=score,
            )
        return stats

    def max_drift_score(self) -> float:
        """Largest per-pool drift score (0.0 when nothing is buffered)."""
        scores = [
            s.score for s in self.drift_stats().values() if np.isfinite(s.score)
        ]
        return max(scores) if scores else 0.0

    # ------------------------------------------------------------------
    # Window materialization
    # ------------------------------------------------------------------
    def window_rows(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The buffered window as dataset-shaped arrays.

        Rows are merged across pools in ingestion order (oldest first),
        so the result is the stream's most recent suffix per pool.
        Returns ``(w_idx, p_idx, interferers, runtime)``.
        """
        records: list[_Record] = []
        for q in self._pools.values():
            records.extend(q)
        records.sort(key=lambda rec: rec[0])
        if not records:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty((0, MAX_INTERFERERS), dtype=np.int64),
                np.empty(0),
            )
        w = np.array([rec[1] for rec in records], dtype=np.int64)
        p = np.array([rec[2] for rec in records], dtype=np.int64)
        co = pad_interferers([rec[3] for rec in records]).astype(np.int64)
        runtime = np.array([rec[4] for rec in records])
        return w, p, co, runtime

    def window_dataset(self, features_from: RuntimeDataset) -> RuntimeDataset:
        """Materialize the window as a :class:`RuntimeDataset`.

        ``features_from`` supplies the side-information matrices (the
        stream carries indices, not features); raises when the buffer is
        empty — an empty calibration set has no conformal meaning.
        """
        w, p, co, runtime = self.window_rows()
        if len(runtime) == 0:
            raise ValueError("cannot materialize an empty observation buffer")
        return RuntimeDataset(
            w_idx=w,
            p_idx=p,
            interferers=co,
            runtime=runtime,
            workload_features=features_from.workload_features,
            platform_features=features_from.platform_features,
            workloads=features_from.workloads,
            platforms=features_from.platforms,
            workload_feature_names=features_from.workload_feature_names,
            platform_feature_names=features_from.platform_feature_names,
        )
