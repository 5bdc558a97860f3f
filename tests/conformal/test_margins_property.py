"""Margin-engine properties: the invariants the vectorization must keep.

Four contracts, each over arbitrary generated calibration sets:

* uniform weights collapse ``weighted`` to ``naive`` *exactly* (the
  weighted threshold with w≡c hits the same integer cut index);
* margins are monotone non-increasing in ε (a laxer target never asks
  for a larger offset);
* ``bootstrap`` margins are invariant to pool relabeling and row
  permutation (the resample seed derives from pool *content*);
* the online conformalizer's incremental sorted windows match a
  from-scratch re-sort of the retained scores after any ingest/evict
  pattern — and matches the scalar reference
  (``tests/reference/online.py``) offset-for-offset in every mode.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.online import ScalarOnlineConformalizer

from repro.conformal import (
    MarginParams,
    OnlineConformalizer,
    margin_offsets_by_pool,
)

finite_scores = st.lists(
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=300,
)


class _ZeroModel:
    def predict_log(self, w_idx, p_idx, interferers=None):
        return np.zeros((len(np.asarray(w_idx)), 1))


@settings(max_examples=40, deadline=None)
@given(raw=finite_scores, seed=st.integers(0, 10_000),
       eps=st.sampled_from([0.02, 0.05, 0.1, 0.3]))
def test_property_uniform_weights_reduce_to_naive_exactly(raw, seed, eps):
    scores = np.asarray(raw)
    pools = np.random.default_rng(seed).integers(1, 4, size=len(scores))
    naive = margin_offsets_by_pool(scores, pools, eps, "naive")
    uniform = margin_offsets_by_pool(
        scores, pools, eps, "weighted", weights=np.full(len(scores), 0.7)
    )
    assert naive == uniform


@settings(max_examples=40, deadline=None)
@given(raw=finite_scores, seed=st.integers(0, 10_000),
       mode=st.sampled_from(["naive", "weighted", "mnar"]))
def test_property_margins_monotone_in_epsilon(raw, seed, mode):
    scores = np.asarray(raw)
    rng = np.random.default_rng(seed)
    pools = rng.integers(1, 4, size=len(scores))
    weights = None
    if mode == "weighted":
        weights = rng.uniform(0.1, 2.0, size=len(scores))
    elif mode == "mnar":
        weights = rng.uniform(0.5, 2.0, size=len(scores))
    grid = (0.02, 0.05, 0.1, 0.2, 0.4)
    offsets = [
        margin_offsets_by_pool(scores, pools, eps, mode, weights=weights)
        for eps in grid
    ]
    for tighter, laxer in zip(offsets, offsets[1:]):
        for pool in tighter.keys() & laxer.keys():
            assert laxer[pool] <= tighter[pool]


@settings(max_examples=30, deadline=None)
@given(raw=finite_scores, seed=st.integers(0, 10_000))
def test_property_bootstrap_invariant_to_pool_relabeling(raw, seed):
    scores = np.asarray(raw)
    rng = np.random.default_rng(seed)
    pools = rng.integers(1, 4, size=len(scores))
    base = margin_offsets_by_pool(scores, pools, 0.1, "bootstrap")
    # Relabel pools by a fixed bijection and permute the rows: each
    # pool's *content* is unchanged, so its margin must be too.
    relabel = {1: 7, 2: 5, 3: 9}
    perm = rng.permutation(len(scores))
    shuffled = margin_offsets_by_pool(
        scores[perm],
        np.asarray([relabel[int(p)] for p in pools])[perm],
        0.1,
        "bootstrap",
    )
    assert shuffled[-1] == base[-1]
    for pool, new in relabel.items():
        if pool in base:
            assert shuffled[new] == base[pool]


@settings(max_examples=25, deadline=None)
@given(
    window=st.integers(2, 120),
    batches=st.lists(st.integers(1, 80), min_size=1, max_size=8),
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["naive", "weighted", "bootstrap", "mnar"]),
)
def test_property_incremental_state_matches_from_scratch(
    window, batches, seed, mode
):
    """After any ingest/evict pattern the incremental structures hold
    sorted exactly what a re-sort of the retained stream holds, and the
    batched offsets equal the scalar reference's in every mode."""
    rng = np.random.default_rng(seed)
    margin = MarginParams(mode=mode, tau=25.0, n_bootstrap=16)
    fast = OnlineConformalizer(_ZeroModel(), window=window, margin=margin)
    slow = ScalarOnlineConformalizer(_ZeroModel(), window=window, margin=margin)
    fed: dict[int, list[float]] = {1: [], 2: []}
    for n in batches:
        n_iso = int(rng.integers(0, n + 1))
        for pool, count in ((1, n_iso), (2, n - n_iso)):
            if count == 0:
                continue
            runtimes = np.exp(rng.normal(0.0, 1.0, count))
            interferers = np.zeros((count, 1), int) if pool == 2 else None
            w = rng.integers(0, 6, count)
            p = rng.integers(0, 4, count)
            fast.observe(w, p, interferers, runtimes)
            slow.observe(w, p, interferers, runtimes)
            fed[pool].extend(np.log(runtimes).tolist())
    for pool in (1, 2):
        retained = np.asarray(fed[pool][-window:])
        # Incremental sorted window == from-scratch re-sort of the tail.
        np.testing.assert_array_equal(
            fast._pool_window_sorted(pool)[0], np.sort(retained)
        )
        np.testing.assert_array_equal(fast.pool_scores(pool), retained)
    for eps in (0.05, 0.1, 0.3):
        assert fast.offsets_by_pool(eps) == slow.offsets_by_pool(eps)
        for pool in (1, 2):
            f, s = fast.offset(eps, pool), slow.offset(eps, pool)
            assert f == s or (np.isinf(f) and np.isinf(s))
