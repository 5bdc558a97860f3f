"""Train/validation/calibration/test splitting (Sec 5.1).

The paper evaluates at training fractions 10%…90% with 5 replicates, each
replicate drawing an independent train/test partition; within the training
set, 80% trains the model and 20% is held out for validation *and*
conformal calibration.

Two paper assumptions are enforced (Sec 3.1): every workload and every
platform must be observed at least once in the training portion — rows are
promoted into train when a replicate would otherwise leave an entity
unseen.

Beyond the paper's random protocol, :func:`make_cold_workload_split`
implements the unseen-entity regime (the ``cold-start-workloads``
scenario): a workload subset is held out entirely, so every observation
touching it — as target *or* interferer — is test-only and the model must
generalize from side-information features alone.

Every split records the row-index arrays it was built from
(``train_rows`` / ``calibration_rows`` / ``test_rows``), so splits can be
persisted, compared for determinism, and replayed by the pipeline's
artifact cache without re-randomizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import RuntimeDataset

__all__ = [
    "DataSplit",
    "make_split",
    "make_cold_workload_split",
    "replicate_splits",
]


@dataclass
class DataSplit:
    """One replicate's partition of a dataset.

    ``train`` is the 80% used for gradient descent; ``calibration`` is the
    20% validation/calibration hold-out; ``test`` is everything outside
    the training fraction. The ``*_rows`` arrays are the source-dataset
    row indices backing each part (sorted order matches the subset
    construction).
    """

    train: RuntimeDataset
    calibration: RuntimeDataset
    test: RuntimeDataset
    train_fraction: float
    seed: int
    train_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    calibration_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )
    test_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def n_train(self) -> int:
        return self.train.n_observations

    @property
    def n_calibration(self) -> int:
        return self.calibration.n_observations

    @property
    def n_test(self) -> int:
        return self.test.n_observations

    @classmethod
    def from_rows(
        cls,
        dataset: RuntimeDataset,
        train_rows: np.ndarray,
        calibration_rows: np.ndarray,
        test_rows: np.ndarray,
        train_fraction: float,
        seed: int,
    ) -> "DataSplit":
        """Materialize a split from explicit row-index arrays.

        The replay path: a split persisted as three index arrays (the
        pipeline's ``scale`` artifact) reconstructs bit-identically.
        """
        train_rows = np.asarray(train_rows, dtype=int)
        calibration_rows = np.asarray(calibration_rows, dtype=int)
        test_rows = np.asarray(test_rows, dtype=int)
        return cls(
            train=dataset.subset(train_rows),
            calibration=dataset.subset(calibration_rows),
            test=dataset.subset(test_rows),
            train_fraction=train_fraction,
            seed=seed,
            train_rows=train_rows,
            calibration_rows=calibration_rows,
            test_rows=test_rows,
        )


def _ensure_entity_coverage(
    dataset: RuntimeDataset,
    train_rows: np.ndarray,
    test_rows: np.ndarray,
    rng: np.random.Generator,
    universe: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Move rows from test → train so every entity appears in training.

    Implements the "each workload/platform is observed at least once"
    assumption; predicting a never-observed entity is out of scope for
    matrix completion (Sec 3.1). ``universe`` restricts the entity sets to
    those referenced by the given rows (the cold-workload split must not
    pull held-out entities back into training).

    The workload pass runs first, then the platform pass. Each missing
    entity, in ascending id order, moves one test row drawn uniformly
    (one ``rng.integers`` call) from its remaining test rows in their
    original order; an entity with no such row is skipped without a
    draw. Both passes judge coverage by the *incoming* ``train_rows``,
    so a platform counts as missing even if the workload pass already
    moved one of its rows. Test rows are grouped once per pass (stable
    sort plus ``searchsorted``), which keeps the cost linear in the rows
    rather than in rows × missing entities.
    """
    train_rows = np.asarray(train_rows, dtype=int)
    test = np.asarray(test_rows, dtype=int)
    moved = []
    for column in (dataset.w_idx, dataset.p_idx):
        size = int(column.max()) + 1 if len(column) else 0
        pool = column if universe is None else column[universe]
        missing = np.flatnonzero(
            (np.bincount(pool, minlength=size) > 0)
            & (np.bincount(column[train_rows], minlength=size) == 0)
        )
        order = np.argsort(column[test], kind="stable")
        grouped = column[test[order]]
        lo = np.searchsorted(grouped, missing, side="left").tolist()
        hi = np.searchsorted(grouped, missing, side="right").tolist()
        picks = [order[a + rng.integers(b - a)] for a, b in zip(lo, hi) if b > a]
        keep = np.ones(len(test), dtype=bool)
        keep[picks] = False
        moved.append(test[picks])
        test = test[keep]
    return np.sort(np.concatenate([train_rows, *moved])), test


def make_split(
    dataset: RuntimeDataset,
    train_fraction: float,
    seed: int,
    calibration_fraction: float = 0.2,
) -> DataSplit:
    """Draw one replicate split.

    Parameters
    ----------
    dataset:
        The full collected dataset.
    train_fraction:
        Fraction of all observations available for training+calibration
        (the x-axis of Figs 4/6).
    seed:
        Replicate seed; different seeds give independent partitions.
    calibration_fraction:
        Portion of the training fraction held out for validation and
        conformal calibration (paper: 20%).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    n = dataset.n_observations
    perm = rng.permutation(n)
    n_train_total = int(round(train_fraction * n))
    train_total, test_rows = perm[:n_train_total], perm[n_train_total:]
    train_total, test_rows = _ensure_entity_coverage(
        dataset, train_total, test_rows, rng
    )

    # Hold out calibration from the (possibly augmented) training rows.
    perm2 = rng.permutation(len(train_total))
    n_cal = int(round(calibration_fraction * len(train_total)))
    cal_rows = train_total[perm2[:n_cal]]
    train_rows = train_total[perm2[n_cal:]]
    # Entity coverage must also hold for the actual gradient-descent rows.
    train_rows, cal_rows = _ensure_entity_coverage(
        dataset, train_rows, cal_rows, rng
    )

    return DataSplit.from_rows(
        dataset,
        train_rows=train_rows,
        calibration_rows=cal_rows,
        test_rows=test_rows,
        train_fraction=train_fraction,
        seed=seed,
    )


def make_cold_workload_split(
    dataset: RuntimeDataset,
    train_fraction: float,
    seed: int,
    calibration_fraction: float = 0.2,
    holdout_fraction: float = 0.2,
) -> DataSplit:
    """Hold out a workload subset entirely (the unseen-entity regime).

    A ``holdout_fraction`` of workloads is drawn; every observation whose
    target *or* interferer set references one of them goes to test, so
    the model never sees those workloads during training or calibration
    in any role. The remaining observations follow the
    :func:`make_split` protocol (with entity coverage enforced over the
    surviving entities only). Test therefore mixes cold rows with the
    usual warm holdout — the warm/cold contrast is the scenario's
    evaluation axis.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(
            f"holdout_fraction must be in (0,1), got {holdout_fraction}"
        )
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    workload_ids = np.unique(dataset.w_idx)
    n_cold = max(1, int(round(holdout_fraction * len(workload_ids))))
    cold = rng.choice(workload_ids, size=n_cold, replace=False)
    cold_set = np.zeros(dataset.n_workloads + 1, dtype=bool)
    cold_set[cold] = True

    touches_cold = cold_set[dataset.w_idx]
    # Interferer padding is -1; index the sentinel onto a dedicated slot.
    interferer_cold = cold_set[dataset.interferers]
    interferer_cold[dataset.interferers < 0] = False
    touches_cold |= interferer_cold.any(axis=1)

    cold_rows = np.flatnonzero(touches_cold)
    warm_rows = np.flatnonzero(~touches_cold)
    if len(warm_rows) < 2:
        raise ValueError(
            f"cold-workload holdout left {len(warm_rows)} warm observation(s) "
            f"to train on ({len(cold_rows)} of {dataset.n_observations} rows "
            f"touch the {n_cold} held-out workloads); lower holdout_fraction "
            f"or collect a denser dataset"
        )

    perm = rng.permutation(len(warm_rows))
    n_train_total = int(round(train_fraction * len(warm_rows)))
    train_total = warm_rows[perm[:n_train_total]]
    warm_test = warm_rows[perm[n_train_total:]]
    train_total, warm_test = _ensure_entity_coverage(
        dataset, train_total, warm_test, rng, universe=warm_rows
    )

    perm2 = rng.permutation(len(train_total))
    n_cal = int(round(calibration_fraction * len(train_total)))
    cal_rows = train_total[perm2[:n_cal]]
    train_rows = train_total[perm2[n_cal:]]
    train_rows, cal_rows = _ensure_entity_coverage(
        dataset, train_rows, cal_rows, rng, universe=warm_rows
    )

    return DataSplit.from_rows(
        dataset,
        train_rows=train_rows,
        calibration_rows=cal_rows,
        test_rows=np.concatenate([warm_test, cold_rows]),
        train_fraction=train_fraction,
        seed=seed,
    )


def replicate_splits(
    dataset: RuntimeDataset,
    train_fraction: float,
    n_replicates: int,
    base_seed: int = 0,
) -> list[DataSplit]:
    """The paper's replicate protocol: independent splits per replicate."""
    return [
        make_split(dataset, train_fraction, seed=base_seed + 1000 * r)
        for r in range(n_replicates)
    ]
