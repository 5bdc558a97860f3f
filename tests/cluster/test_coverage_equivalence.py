"""Grouped entity-coverage pass == the per-entity reference scan.

``_ensure_entity_coverage`` decides which test rows move into training,
and the split feeds conformal calibration, so it must pick the very same
rows with the very same random draws as the per-entity scan it replaced
(kept in ``tests/reference/splits.py``).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.splits import ensure_entity_coverage as reference_coverage
from repro.cluster import (
    MAX_INTERFERERS,
    RuntimeDataset,
    make_cold_workload_split,
    make_split,
)
from repro.cluster import splits as splits_module
from repro.cluster.splits import _ensure_entity_coverage


def _dataset(w_idx, p_idx):
    n = len(w_idx)
    return RuntimeDataset(
        w_idx=np.asarray(w_idx, dtype=np.int64),
        p_idx=np.asarray(p_idx, dtype=np.int64),
        interferers=np.full((n, MAX_INTERFERERS), -1, dtype=np.int64),
        runtime=np.ones(n),
        workload_features=np.zeros((max(w_idx, default=0) + 1, 1)),
        platform_features=np.zeros((max(p_idx, default=0) + 1, 1)),
    )


def _assert_same(dataset, train, test, seed, universe=None):
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    got = _ensure_entity_coverage(dataset, train, test, rng_new, universe)
    want = reference_coverage(dataset, train, test, rng_ref, universe)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got, rng_new.bit_generator.state


def _state_after_one_draw(seed, n):
    rng = np.random.default_rng(seed)
    rng.integers(n)
    return rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(0, 80),
    n_workloads=st.integers(1, 15),
    n_platforms=st.integers(1, 8),
    row_share=st.sampled_from([1.0, 0.7, 0.3]),
    train_fraction=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.6, 0.95]),
    restrict=st.booleans(),
)
def test_grouped_pass_matches_reference(
    seed, n_rows, n_workloads, n_platforms, row_share, train_fraction, restrict
):
    """Random small datasets: equal rows, equal dtypes, equal RNG state.

    Only a ``row_share`` of the dataset is split, so some entities have
    no test candidates (as in the second, train→calibration call of
    ``make_split``); ``restrict`` passes a ``universe`` as the
    cold-workload split does.
    """
    gen = np.random.default_rng(seed)
    dataset = _dataset(
        gen.integers(n_workloads, size=n_rows).tolist(),
        gen.integers(n_platforms, size=n_rows).tolist(),
    )
    rows = gen.permutation(n_rows)[: int(round(row_share * n_rows))]
    n_train = int(round(train_fraction * len(rows)))
    universe = np.sort(rows) if restrict else None
    _assert_same(dataset, rows[:n_train], rows[n_train:], seed + 1, universe)


def test_empty_train_rows():
    dataset = _dataset([0, 1, 1, 2, 0], [0, 0, 1, 1, 2])
    (train, _), _ = _assert_same(
        dataset, np.empty(0, dtype=int), np.arange(5), seed=3
    )
    assert set(dataset.w_idx[train]) == {0, 1, 2}
    assert set(dataset.p_idx[train]) == {0, 1, 2}


def test_entity_without_candidates_draws_nothing():
    """Workload 2 is missing but has no test row: skipped, no draw."""
    dataset = _dataset([0, 1, 2], [0, 0, 0])
    (train, test), state = _assert_same(
        dataset, np.array([0]), np.array([1]), seed=0
    )
    assert train.tolist() == [0, 1] and test.tolist() == []
    assert state == _state_after_one_draw(0, 1)


class TestPlatformPassQuirk:
    """The platform pass judges coverage by the *incoming* train rows."""

    def test_platform_moved_by_workload_pass_still_counts_missing(self):
        # Row 1 is moved for workload 1 and carries platform 1, yet
        # platform 1 is still missing by the incoming train rows, so row
        # 2 moves too.
        dataset = _dataset([0, 1, 0], [0, 1, 1])
        (train, test), _ = _assert_same(
            dataset, np.array([0]), np.array([1, 2]), seed=0
        )
        assert train.tolist() == [0, 1, 2]
        assert test.tolist() == []

    def test_platform_whose_only_row_moved_is_skipped(self):
        # Platform 1's only test row went to train in the workload pass:
        # the platform pass finds no candidate and draws nothing more.
        dataset = _dataset([0, 1], [0, 1])
        (train, test), state = _assert_same(
            dataset, np.array([0]), np.array([1]), seed=5
        )
        assert train.tolist() == [0, 1] and test.tolist() == []
        assert state == _state_after_one_draw(5, 1)


@pytest.mark.parametrize("fraction", [0.02, 0.05, 0.1, 0.3])
def test_splits_match_reference(mini_dataset, fraction):
    """Whole ``make_split`` / ``make_cold_workload_split`` draws agree."""
    for make in (make_split, make_cold_workload_split):
        got = make(mini_dataset, fraction, seed=7)
        with mock.patch.object(
            splits_module, "_ensure_entity_coverage", reference_coverage
        ):
            want = make(mini_dataset, fraction, seed=7)
        for name in ("train_rows", "calibration_rows", "test_rows"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
