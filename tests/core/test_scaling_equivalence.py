"""Grouped baseline fallback == the per-entity reference mask loop.

``LinearScalingBaseline._fill_unseen`` gives entities with no isolation
row a parameter from all training rows (App B.1). Its grouped form must
produce the same ``w_bar``/``p_bar`` bytes as the per-entity boolean-mask
loop it replaced (kept in ``tests/reference/scaling.py``).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.scaling import fill_unseen as reference_fill
from repro.core import LinearScalingBaseline


def _fallback(gen, n_rows, n_workloads, n_platforms):
    return (
        gen.integers(n_workloads, size=n_rows),
        gen.integers(n_platforms, size=n_rows),
        gen.normal(size=n_rows) * 3.0,
    )


def _assert_same_bytes(a, b):
    assert a.w_bar.tobytes() == b.w_bar.tobytes()
    assert a.p_bar.tobytes() == b.p_bar.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_workloads=st.integers(1, 30),
    n_platforms=st.integers(1, 10),
    n_rows=st.integers(0, 400),
    seen_share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    with_fallback=st.booleans(),
)
def test_fill_unseen_matches_reference(
    seed, n_workloads, n_platforms, n_rows, seen_share, with_fallback
):
    """Random parameters and seen masks: equal bytes and equal masks.

    Row counts up to 400 put some entities past numpy's 8-element
    unrolled summation, where any reordering of a mean's terms shows.
    """
    gen = np.random.default_rng(seed)
    w_bar, p_bar = gen.normal(size=n_workloads), gen.normal(size=n_platforms)
    w_seen = gen.random(n_workloads) < seen_share
    p_seen = gen.random(n_platforms) < seen_share
    fallback = (
        _fallback(gen, n_rows, n_workloads, n_platforms) if with_fallback else None
    )
    got = LinearScalingBaseline.from_parameters(w_bar.copy(), p_bar.copy())
    want = LinearScalingBaseline.from_parameters(w_bar.copy(), p_bar.copy())
    got_w, got_p = w_seen.copy(), p_seen.copy()
    want_w, want_p = w_seen.copy(), p_seen.copy()
    got._fill_unseen(got_w, got_p, fallback)
    reference_fill(want, want_w, want_p, fallback)
    _assert_same_bytes(got, want)
    assert np.array_equal(got_w, want_w) and np.array_equal(got_p, want_p)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), iso_share=st.sampled_from([0.05, 0.3, 0.8]))
def test_fit_matches_reference(seed, iso_share):
    """A whole fit, isolation rows plus all-rows fallback, is bit-equal."""
    gen = np.random.default_rng(seed)
    fw, fp, fy = _fallback(gen, 600, 60, 12)
    iso = gen.random(600) < iso_share
    got = LinearScalingBaseline(60, 12).fit(
        fw[iso], fp[iso], fy[iso], fallback=(fw, fp, fy)
    )
    with mock.patch.object(LinearScalingBaseline, "_fill_unseen", reference_fill):
        want = LinearScalingBaseline(60, 12).fit(
            fw[iso], fp[iso], fy[iso], fallback=(fw, fp, fy)
        )
    _assert_same_bytes(got, want)
