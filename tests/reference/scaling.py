"""Per-entity mask form of ``LinearScalingBaseline._fill_unseen``.

Builds one boolean mask over every fallback row per unseen entity. The
production method groups the fallback rows once per column instead;
this body is kept verbatim (``self`` renamed to ``baseline``) as its
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core import LinearScalingBaseline


def fill_unseen(
    baseline: LinearScalingBaseline,
    w_seen: np.ndarray,
    p_seen: np.ndarray,
    fallback: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> None:
    """Give unseen entities fallback parameters, in place on ``baseline``."""
    if fallback is not None:
        fw, fp, fy = (np.asarray(a) for a in fallback)
        for entity in np.flatnonzero(~w_seen):
            rows = fw == entity
            if rows.any():
                baseline.w_bar[entity] = float(
                    np.mean(fy[rows] - baseline.p_bar[fp[rows]])
                )
                w_seen[entity] = True
        for entity in np.flatnonzero(~p_seen):
            rows = fp == entity
            if rows.any():
                baseline.p_bar[entity] = float(
                    np.mean(fy[rows] - baseline.w_bar[fw[rows]])
                )
                p_seen[entity] = True
    if (~w_seen).any():
        baseline.w_bar[~w_seen] = baseline.w_bar[w_seen].mean() if w_seen.any() else 0.0
    if (~p_seen).any():
        baseline.p_bar[~p_seen] = baseline.p_bar[p_seen].mean() if p_seen.any() else 0.0
