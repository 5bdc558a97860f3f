"""Campaign co-runner draws: one raw-stream pass vs one ``choice`` per set.

The interference campaign (App C.3) draws ``sets_per_degree`` random
co-runner sets of each degree on every platform — 165k sets at paper
scale. The reference path (``tests/reference/collection.py``) calls
``rng.choice(valid, size=degree, replace=False)`` once per set;
``_choice_sets`` replays the same Floyd + shuffle draws from the raw
PCG64 stream, vectorized over sets.

Methodology: both paths draw every (platform, degree) block of the
paper-scale cluster from generators seeded alike. Equality of every set
and of the final generator state is asserted first (the speedup must not
come from drawing something else); each path's wall-clock is the median
of its repeats (more for the fast path, whose ~0.1 s run swings most on
a shared host) and feeds the guarded ratio. Units "x" →
``repro.devtools.bench_guard`` fails CI if the speedup drops >30%.
"""

import time

import numpy as np

from reference.collection import choice_sets as reference_choice_sets
from repro.cluster import CollectionConfig, make_cluster
from repro.cluster.collection import _choice_sets
from repro.eval import format_table

from conftest import emit

#: Timed runs per path: (raw-stream pass, per-set reference loop).
REPEATS = (11, 3)
SEED = 1


def _valid_sets(config: CollectionConfig) -> list[np.ndarray]:
    """Per-platform sampling populations, as the campaign builds them."""
    model = make_cluster(seed=0)
    budget_log10 = np.log10(config.time_budget_s)
    ok = (~model.crash_table) & (model.log10_isolation <= budget_log10)
    populations = [np.flatnonzero(ok[:, j]) for j in range(ok.shape[1])]
    return [v for v in populations if len(v) >= max(config.degrees)]


def _draw(draw_fn, populations, config):
    """Every block's sets from one generator; (seconds, sets, state)."""
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    sets = [
        draw_fn(rng, valid, degree, config.sets_per_degree)
        for valid in populations
        for degree in config.degrees
    ]
    return time.perf_counter() - start, sets, rng.bit_generator.state


def _median_run(draw_fn, populations, config, repeats):
    runs = [_draw(draw_fn, populations, config) for _ in range(repeats)]
    return float(np.median([r[0] for r in runs])), runs[0][1], runs[0][2]


def test_collection_throughput(benchmark):
    config = CollectionConfig()
    populations = _valid_sets(config)
    t_fast, fast_sets, fast_state = benchmark.pedantic(
        lambda: _median_run(_choice_sets, populations, config, REPEATS[0]),
        rounds=1, iterations=1,
    )
    t_ref, ref_sets, ref_state = _median_run(
        reference_choice_sets, populations, config, REPEATS[1]
    )
    # Same seed, same contract: identical sets and stream position
    # before the timings are comparable.
    assert fast_state == ref_state
    for fast, ref in zip(fast_sets, ref_sets, strict=True):
        np.testing.assert_array_equal(fast, ref)

    n_sets = sum(len(s) for s in fast_sets)
    speedup = t_ref / t_fast
    table = format_table(
        ["path", "sets/s", "seconds (median)"],
        [
            ["rng.choice per set", f"{n_sets / t_ref:,.0f}", f"{t_ref:.3f}"],
            ["raw-stream pass", f"{n_sets / t_fast:,.0f}", f"{t_fast:.3f}"],
            ["speedup", f"{speedup:.1f}x", ""],
        ],
        title=(
            f"Campaign co-runner draws at paper scale ({len(populations)} "
            f"platforms x degrees {config.degrees} x "
            f"{config.sets_per_degree} sets, median of {REPEATS[0]} / "
            f"{REPEATS[1]} runs)"
        ),
    )
    emit(
        "collection_throughput",
        table,
        metrics={
            "speedup": (speedup, "x"),
            "vectorized_sets_per_s": (n_sets / t_fast, "sets/s"),
            "reference_sets_per_s": (n_sets / t_ref, "sets/s"),
        },
    )
    # Acceptance floor: the one-pass draw beats the per-set loop >=5x.
    assert speedup >= 5.0
