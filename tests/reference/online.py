"""Per-score ``deque`` form of ``repro.conformal.OnlineConformalizer``.

Before the online layer kept its windows as score-sorted arrays, every
pool held three ``deque(maxlen=window)`` buffers (scores, arrival tags
and, for ``mnar``, cells) fed one score at a time, and every cut
re-sorted the window. :class:`ScalarOnlineConformalizer` keeps that
storage: it overrides the ingest and every window read, and inherits
the margin cuts, so offsets and bounds must equal the production class
bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.conformal import OnlineConformalizer


class ScalarOnlineConformalizer(OnlineConformalizer):
    """An :class:`OnlineConformalizer` over per-pool ``deque`` windows."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._scores: dict[int, deque[float]] = {}
        self._arrivals: dict[int, deque[int]] = {}
        self._cells: dict[int, deque[tuple[int, int]]] = {}

    def observe(self, w_idx, p_idx, interferers, runtime_seconds) -> None:
        runtime_seconds = np.asarray(runtime_seconds, dtype=np.float64)
        if np.any(runtime_seconds <= 0):
            raise ValueError("runtimes must be positive")
        pred = self.model.predict_log(w_idx, p_idx, interferers)[:, self.head]
        scores = np.log(runtime_seconds) - pred
        pools = self._pool_of(interferers, len(scores))
        arrivals = self._seq + np.arange(len(scores), dtype=np.int64)
        self._seq += len(scores)
        for i, (pool, score) in enumerate(zip(pools.tolist(), scores.tolist())):
            self._scores.setdefault(pool, deque(maxlen=self.window)).append(score)
            self._arrivals.setdefault(pool, deque(maxlen=self.window)).append(
                int(arrivals[i])
            )
            if self._track_cells:
                self._cells.setdefault(pool, deque(maxlen=self.window)).append(
                    (int(w_idx[i]), int(p_idx[i]))
                )

    def n_observed(self, pool: int | None = None) -> int:
        if pool is not None:
            return len(self._scores.get(pool, ()))
        return sum(len(q) for q in self._scores.values())

    def pool_scores(self, pool: int) -> np.ndarray:
        return np.asarray(self._scores.get(pool, ()), dtype=np.float64)

    def _pool_window_sorted(self, pool: int) -> tuple[np.ndarray, np.ndarray]:
        scores = np.asarray(self._scores.get(pool, ()), dtype=np.float64)
        arrivals = np.asarray(self._arrivals.get(pool, ()), dtype=np.int64)
        order = np.argsort(scores, kind="stable")
        return scores[order], arrivals[order]

    def _merged_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        pools = self._tracked_pools()
        if not pools:
            return np.empty(0), np.empty(0, dtype=np.int64)
        per_pool = [self._pool_window_sorted(pool) for pool in pools]
        scores = np.concatenate([s for s, _ in per_pool])
        arrivals = np.concatenate([a for _, a in per_pool])
        order = np.argsort(scores, kind="stable")
        return scores[order], arrivals[order]

    def _tracked_pools(self) -> list[int]:
        return sorted(self._scores)

    def _window_cells(self) -> tuple[np.ndarray, np.ndarray]:
        ws, ps = [], []
        for cells in self._cells.values():
            if cells:
                pairs = np.asarray(cells, dtype=np.intp)
                ws.append(pairs[:, 0])
                ps.append(pairs[:, 1])
        if not ws:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        return np.concatenate(ws), np.concatenate(ps)

    def _mnar_weights_by_pool(self) -> dict[int, np.ndarray]:
        w_all, p_all = self._window_cells()
        if not len(w_all):
            return {}
        weights: dict[int, np.ndarray] = {}
        row_counts = np.bincount(w_all).astype(np.float64)
        col_counts = np.bincount(p_all).astype(np.float64)
        n = float(len(w_all))
        for pool in self._tracked_pools():
            pairs = np.asarray(self._cells.get(pool, ()), dtype=np.intp)
            if not len(pairs):
                weights[pool] = np.empty(0)
                continue
            order = np.argsort(
                np.asarray(self._scores[pool], dtype=np.float64), kind="stable"
            )
            w_idx, p_idx = pairs[order, 0], pairs[order, 1]
            propensity = row_counts[w_idx] * col_counts[p_idx] / n
            w = 1.0 / propensity
            w /= w.mean()
            np.clip(w, 1.0 / self.margin.clip, self.margin.clip, out=w)
            weights[pool] = w
        return weights

    def _merged_cut(self, epsilon: float) -> float:
        if self.margin.mode != "naive":
            return super()._merged_cut(epsilon)
        # The production naive cut partitions the pool windows directly;
        # the reference takes the order statistic of the merged sort.
        scores, arrivals = self._merged_sorted()
        return self._cut(scores, arrivals, epsilon)
