"""Linear scaling baseline (Sec 3.2 / App B.1).

Fits ``log C̄_ij = w̄_i + p̄_j`` — workload log "difficulty" plus platform
log "speed" — by alternating minimization on interference-free data. The
log-loss is convex in each block, so the coordinate updates (Eq. 14) are
exact means of residuals and descent is monotone.

Pitot's towers then predict the *residual* ``y = log C − log C̄`` (Eq. 3),
which is invariant to scaling a workload by a constant repetition factor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinearScalingBaseline"]


class LinearScalingBaseline:
    """Alternating-minimization fit of the additive log model.

    Works in natural-log space (the model's target domain). Entities never
    observed in the fitting data receive fallback values so downstream
    residuals stay finite; see :meth:`fit`.
    """

    def __init__(self, n_workloads: int, n_platforms: int) -> None:
        self.n_workloads = n_workloads
        self.n_platforms = n_platforms
        self.w_bar = np.zeros(n_workloads)
        self.p_bar = np.zeros(n_platforms)
        self.loss_history: list[float] = []
        self._fitted = False

    @classmethod
    def from_parameters(
        cls, w_bar: np.ndarray, p_bar: np.ndarray
    ) -> "LinearScalingBaseline":
        """Rebuild a fitted baseline from persisted parameter vectors.

        The restore path for model archives and pipeline artifacts: the
        returned baseline predicts identically to the one that was saved.
        Only the parameters are persisted — ``loss_history`` (a fit-time
        convergence diagnostic) starts empty.
        """
        baseline = cls(len(w_bar), len(p_bar))
        baseline.w_bar = np.asarray(w_bar, dtype=np.float64)
        baseline.p_bar = np.asarray(p_bar, dtype=np.float64)
        baseline._fitted = True
        return baseline

    # ------------------------------------------------------------------
    def fit(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        log_runtime: np.ndarray,
        n_iterations: int = 30,
        tol: float = 1e-9,
        fallback: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> "LinearScalingBaseline":
        """Fit on isolation observations.

        Parameters
        ----------
        w_idx, p_idx, log_runtime:
            Interference-free training rows (natural log seconds).
        n_iterations:
            Maximum alternating-minimization sweeps.
        tol:
            Stop when the loss improves by less than this.
        fallback:
            Optional ``(w_idx, p_idx, log_runtime)`` of *all* training
            rows (including interference). Workloads/platforms with no
            isolation observation get their parameter estimated from
            these rows instead — slightly biased upward by interference,
            but finite. Remaining unseen entities get the population mean.
        """
        w_idx = np.asarray(w_idx)
        p_idx = np.asarray(p_idx)
        y = np.asarray(log_runtime, dtype=np.float64)

        w_counts = np.bincount(w_idx, minlength=self.n_workloads).astype(float)
        p_counts = np.bincount(p_idx, minlength=self.n_platforms).astype(float)
        self.loss_history = []

        if len(y) > 0:
            previous = np.inf
            for _ in range(n_iterations):
                # w̄_i ← mean_j (y_ij − p̄_j)   (Eq. 14)
                resid_w = np.bincount(
                    w_idx, weights=y - self.p_bar[p_idx], minlength=self.n_workloads
                )
                np.divide(
                    resid_w, w_counts, out=self.w_bar, where=w_counts > 0
                )
                # p̄_j ← mean_i (y_ij − w̄_i)
                resid_p = np.bincount(
                    p_idx, weights=y - self.w_bar[w_idx], minlength=self.n_platforms
                )
                np.divide(
                    resid_p, p_counts, out=self.p_bar, where=p_counts > 0
                )
                loss = float(
                    np.mean((y - self.w_bar[w_idx] - self.p_bar[p_idx]) ** 2)
                )
                self.loss_history.append(loss)
                if previous - loss < tol:
                    break
                previous = loss

        # Identifiability: put the global level into w̄ (mean(p̄) = 0 over
        # observed platforms).
        seen_p = p_counts > 0
        if seen_p.any():
            shift = self.p_bar[seen_p].mean()
            self.p_bar[seen_p] -= shift
            self.w_bar[w_counts > 0] += shift

        self._fill_unseen(w_counts > 0, p_counts > 0, fallback)
        self._fitted = True
        return self

    def _fill_unseen(
        self,
        w_seen: np.ndarray,
        p_seen: np.ndarray,
        fallback: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    ) -> None:
        if fallback is not None:
            fw, fp, fy = (np.asarray(a) for a in fallback)
            # Whole workload pass first: the platform pass reads the
            # filled-in w̄. Each unseen entity averages its fallback rows
            # in their original order (stable grouping), so the mean has
            # the same bits as over a boolean mask of those rows.
            for seen, bar, column, other_bar, other_column in (
                (w_seen, self.w_bar, fw, self.p_bar, fp),
                (p_seen, self.p_bar, fp, self.w_bar, fw),
            ):
                unseen = np.flatnonzero(~seen)
                order = np.argsort(column, kind="stable")
                grouped = column[order]
                lo = np.searchsorted(grouped, unseen, side="left").tolist()
                hi = np.searchsorted(grouped, unseen, side="right").tolist()
                for entity, a, b in zip(unseen.tolist(), lo, hi):
                    if b > a:
                        rows = order[a:b]
                        bar[entity] = float(
                            np.mean(fy[rows] - other_bar[other_column[rows]])
                        )
                        seen[entity] = True
        if (~w_seen).any():
            self.w_bar[~w_seen] = self.w_bar[w_seen].mean() if w_seen.any() else 0.0
        if (~p_seen).any():
            self.p_bar[~p_seen] = self.p_bar[p_seen].mean() if p_seen.any() else 0.0

    # ------------------------------------------------------------------
    def predict(self, w_idx: np.ndarray, p_idx: np.ndarray) -> np.ndarray:
        """Baseline natural-log runtime ``w̄_i + p̄_j``."""
        if not self._fitted:
            raise RuntimeError("baseline not fitted")
        return self.w_bar[np.asarray(w_idx)] + self.p_bar[np.asarray(p_idx)]

    def residual(
        self, w_idx: np.ndarray, p_idx: np.ndarray, log_runtime: np.ndarray
    ) -> np.ndarray:
        """Residual target ``y = log C − (w̄_i + p̄_j)`` (Eq. 3)."""
        return np.asarray(log_runtime) - self.predict(w_idx, p_idx)
