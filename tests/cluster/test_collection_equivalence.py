"""Vectorized co-runner draws == the per-set ``rng.choice`` loop.

``_choice_sets`` reads numpy's raw PCG64 stream and replays
``Generator.choice(replace=False)`` (Floyd's algorithm plus a
Fisher–Yates shuffle, each draw Lemire's method on the buffered 32-bit
stream). These tests pin it to the scalar loop it replaced (kept in
``tests/reference/collection.py``): equal sets, an equal generator state
and equal next draws, and a byte-equal interference campaign.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference.collection import choice_sets as reference_choice_sets
from reference.collection import collect_interference as reference_collect
from repro.cluster import ClusterCollector, CollectionConfig, make_cluster
from repro.cluster.collection import _choice_sets


def _generators(seed: int, buffered: bool):
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        if buffered:
            # A 32-bit draw leaves the high half of a 64-bit output
            # buffered in the state (``has_uint32 == 1``).
            rng.integers(0, 5, dtype=np.int32)
        pair.append(rng)
    return pair


def _assert_same_stream(ours, ref):
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours.random() == ref.random()
    assert ours.integers(0, 1000, dtype=np.int32) == ref.integers(
        0, 1000, dtype=np.int32
    )
    assert ours.integers(0, 2**40) == ref.integers(0, 2**40)


@pytest.mark.parametrize("buffered", [False, True], ids=["aligned", "buffered"])
@pytest.mark.parametrize("n_sets", [0, 1, 7, 250])
@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("population", ["degree", "degree+1", 30, 249, 10000])
def test_choice_sets_match_choice_loop(population, degree, n_sets, buffered):
    pop = {"degree": degree, "degree+1": degree + 1}.get(population, population)
    # Non-identity ids, so an index/value mix-up cannot pass.
    valid = 3 * np.arange(pop, dtype=np.intp) + 7
    seed = 1000 * degree + n_sets + pop
    ours, ref = _generators(seed, buffered)
    assert ours.bit_generator.state["has_uint32"] == int(buffered)

    got = _choice_sets(ours, valid, degree, n_sets)
    want = reference_choice_sets(ref, valid, degree, n_sets)

    assert got.shape == want.shape == (n_sets, degree)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    _assert_same_stream(ours, ref)


def test_consecutive_blocks_keep_the_stream():
    # The campaign interleaves set draws with float draws, which never
    # touch the buffered half; odd draw counts carry it across blocks.
    valid = np.arange(40)
    ours, ref = _generators(11, buffered=False)
    for degree, n_sets in [(2, 5), (3, 4), (4, 9), (2, 1)]:
        got = _choice_sets(ours, valid, degree, n_sets)
        want = reference_choice_sets(ref, valid, degree, n_sets)
        np.testing.assert_array_equal(got, want)
        assert ours.random(3).tolist() == ref.random(3).tolist()
        assert ours.bit_generator.state == ref.bit_generator.state


def test_lemire_rejection_is_resolved_in_stream():
    # Seed 3 rejects exactly one of these 1.4M draws (a rejection has
    # probability (2**32 mod (b+1)) / 2**32 per draw); the rejected draw
    # re-reads the next 32-bit word and shifts every later one.
    valid, degree, n_sets = np.arange(10000), 4, 200_000
    n_draws = n_sets * (2 * degree - 1)
    ours, ref = _generators(3, buffered=False)

    got = _choice_sets(ours, valid, degree, n_sets)

    # The rejection path ran: one 32-bit word more than one per draw.
    words = n_draws + 1
    probe = np.random.default_rng(3)
    probe.bit_generator.random_raw((words + 1) // 2)
    assert ours.bit_generator.state["state"] == probe.bit_generator.state["state"]
    assert ours.bit_generator.state["has_uint32"] == words % 2

    want = reference_choice_sets(ref, valid, degree, n_sets)
    np.testing.assert_array_equal(got, want)
    _assert_same_stream(ours, ref)


@pytest.mark.parametrize(
    "valid, degree, match",
    [
        (np.arange(3), 4, "larger sample"),
        (np.arange(10001), 2, "exceeds 10000"),
    ],
)
def test_choice_sets_rejects_unsupported(valid, degree, match):
    with pytest.raises(ValueError, match=match):
        _choice_sets(np.random.default_rng(0), valid, degree, 3)


def test_choice_sets_requires_pcg64():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="PCG64"):
        _choice_sets(rng, np.arange(10), 2, 3)


def _assert_campaign_matches(model, config, seed):
    collector = ClusterCollector(model, config)
    ours = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    got = collector.collect_interference(ours)
    want = reference_collect(collector, ref)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    _assert_same_stream(ours, ref)


def test_campaign_matches_reference_mini():
    model = make_cluster(seed=5, n_workloads=24, n_devices=4, n_runtimes=3)
    _assert_campaign_matches(model, CollectionConfig(sets_per_degree=17), 6)


def test_campaign_matches_reference_paper_scale():
    # The full 249-workload x 220-platform campaign (165k sets).
    _assert_campaign_matches(make_cluster(seed=0), CollectionConfig(), 1)
