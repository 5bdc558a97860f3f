"""Per-set ``rng.choice`` form of the interference campaign.

``choice_sets`` is the one-call-per-set loop that
``repro.cluster.collection._choice_sets`` reproduces from the raw PCG64
stream, and ``collect_interference`` is the former
``ClusterCollector.collect_interference`` body (``self`` renamed to
``collector``): it scores each member's truth per slot and draws its
measurement through ``sample_runtime``. Both are kept as oracles for the
bitwise contract: same sets, same datasets, same generator state.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterCollector
from repro.cluster.dataset import MAX_INTERFERERS


def choice_sets(
    rng: np.random.Generator, valid: np.ndarray, degree: int, n_sets: int
) -> np.ndarray:
    """``(n_sets, degree)`` sets, one ``rng.choice`` call per row."""
    if n_sets == 0:
        # ``np.stack`` refuses an empty list; no call means no draw.
        return np.empty((0, degree), dtype=np.asarray(valid).dtype)
    return np.stack(
        [rng.choice(valid, size=degree, replace=False) for _ in range(n_sets)]
    )


def collect_interference(
    collector: ClusterCollector, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run random co-running sets per platform (per-set reference)."""
    cfg = collector.config
    npf = len(collector.model.platforms)
    budget_log10 = np.log10(cfg.time_budget_s)

    out_w: list[np.ndarray] = []
    out_p: list[np.ndarray] = []
    out_k: list[np.ndarray] = []
    out_r: list[np.ndarray] = []

    for j in range(npf):
        valid = np.flatnonzero(
            (~collector.model.crash_table[:, j])
            & (collector.model.log10_isolation[:, j] <= budget_log10)
        )
        if len(valid) < max(cfg.degrees):
            continue
        for degree in cfg.degrees:
            # (sets, degree) matrix of distinct workloads per row.
            sets = np.stack(
                [
                    rng.choice(valid, size=degree, replace=False)
                    for _ in range(cfg.sets_per_degree)
                ]
            )
            n_sets = sets.shape[0]
            # Failure injection (App C.3): whole-set crashes and
            # per-member alignment timeouts, both growing with degree.
            set_crashed = rng.random(n_sets) < cfg.set_crash_rate * degree
            member_timeout = (
                rng.random((n_sets, degree))
                < cfg.interference_timeout_base * (degree - 1) ** 2
            )
            # Each member observes the rest of its set as interference.
            for slot in range(degree):
                targets = sets[:, slot]
                others = np.delete(sets, slot, axis=1)
                pad = np.full(
                    (n_sets, MAX_INTERFERERS - others.shape[1]), -1, dtype=int
                )
                interf = np.concatenate([others, pad], axis=1)
                p_arr = np.full(n_sets, j)
                true_log10 = collector.model.true_log10(targets, p_arr, interf)
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
                runtime = collector.model.sample_runtime(
                    targets[alive], p_arr[alive], interf[alive], rng,
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
