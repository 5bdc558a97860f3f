"""Per-entity scan form of ``repro.cluster.splits._ensure_entity_coverage``.

For every missing entity this walks the whole remaining test list in
Python, which is quadratic in practice at fleet scale. The production
function groups the test rows once instead; this body is kept verbatim
as its oracle.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import RuntimeDataset


def ensure_entity_coverage(
    dataset: RuntimeDataset,
    train_rows: np.ndarray,
    test_rows: np.ndarray,
    rng: np.random.Generator,
    universe: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Move rows from test → train so every entity appears in training."""
    train_set = set(train_rows.tolist())
    test_list = test_rows.tolist()

    for entity_ids, column in (
        (np.unique(dataset.w_idx if universe is None else dataset.w_idx[universe]),
         dataset.w_idx),
        (np.unique(dataset.p_idx if universe is None else dataset.p_idx[universe]),
         dataset.p_idx),
    ):
        covered = set(np.unique(column[train_rows]).tolist()) if len(train_rows) else set()
        missing = [e for e in entity_ids if e not in covered]
        for entity in missing:
            candidates = [r for r in test_list if column[r] == entity]
            if not candidates:
                continue
            chosen = candidates[int(rng.integers(len(candidates)))]
            test_list.remove(chosen)
            train_set.add(chosen)
    return np.array(sorted(train_set), dtype=int), np.array(test_list, dtype=int)
