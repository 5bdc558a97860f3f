"""Tests for the benchmark's own helpers (spans, open loop, ladder).

Run from the checkout root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench.openloop import (  # noqa: E402
    LadderStep,
    drive_open_loop,
    max_sustained_rate,
    step_passes,
    tail,
)
from perfbench.spans import (  # noqa: E402
    Span,
    Tracer,
    attributed_share,
    layer_self_times,
    self_times,
    total_time,
)


class FakeClock:
    """Manual clock; ``tick`` seconds pass on every read, so the load loop's
    spin-wait makes progress."""

    def __init__(self, tick: float = 0.0) -> None:
        self.t = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.t += self.tick
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("bench.run"):
        clock.t += 1.0
        with tracer.span("pipeline.train"):
            clock.t += 2.0
            with tracer.span("nn.replay"):
                clock.t += 3.0
            clock.t += 0.5
        with tracer.span("pipeline.persist"):
            clock.t += 1.5
    own = self_times(tracer.spans)
    assert own == {0: 1.0, 1: 2.5, 2: 3.0, 3: 1.5}
    layers = layer_self_times(tracer.spans, root=0)
    assert layers == {"bench": 1.0, "pipeline": 4.0, "nn": 3.0}
    assert sum(layers.values()) == pytest.approx(tracer.spans[0].duration)
    assert attributed_share(tracer.spans, 0) == pytest.approx(7.0 / 8.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "serving.batch", 0.0, 10.0, None),
        Span(1, "serving.bound", 1.0, 5.0, 0),
        Span(2, "serving.bound", 4.0, 6.0, 0),
        Span(3, "serving.bound", 8.0, 12.0, 0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_total_time_skips_recursive_nesting_and_inherits_batch():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("bench.batch", batch=7):
        with tracer.span("core.step"):
            clock.t += 1.0
            with tracer.span("core.step"):
                clock.t += 1.0
    assert total_time(tracer.spans, "core.step") == pytest.approx(2.0)
    assert [s.batch for s in tracer.spans] == [7, 7, 7]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]


class _Base:
    def work(self, x):
        return x + 1


class _Child(_Base):
    pass


def _module_fn(x):
    return 2 * x


def test_patch_records_and_restores_class_module_and_table():
    module = sys.modules[__name__]
    table = {"collect": _module_fn}
    tracer = Tracer()
    tracer.patch(_Child, "work", "core.work")
    tracer.patch(module, "_module_fn", "pipeline.fn")
    tracer.patch(table, "collect", "pipeline.persist")
    assert _Child().work(1) == 2
    assert _module_fn(2) == 4
    assert table["collect"](3) == 6
    assert tracer.counters["core.work.calls"] == 1
    assert [s.name for s in tracer.spans] == ["core.work", "pipeline.fn", "pipeline.persist"]
    tracer.restore()
    assert "work" not in vars(_Child)  # inherited method: attribute removed again
    assert module._module_fn.__name__ == "_module_fn"
    assert table["collect"] is module._module_fn
    assert not hasattr(_Base.work, "__wrapped__")


# ----------------------------------------------------------------------
# Open-loop load loop
# ----------------------------------------------------------------------
def test_latency_is_charged_from_scheduled_arrival_through_a_stall():
    clock = FakeClock(tick=1e-7)
    arrivals = np.array([0.0, 0.010, 0.020, 0.030])
    costs = {0: 0.050}  # the first batch stalls for 50 ms

    def serve(lo, hi, batch):
        clock.t += costs.get(batch, 0.001)

    run = drive_open_loop(
        arrivals, serve, max_batch=64, refuse_after=1.0, clock=clock, sleep=clock.sleep
    )
    lat = run.latencies
    assert lat[0] == pytest.approx(0.050, abs=1e-5)
    # Queries 1-3 were due during the stall: they are served together
    # right after it and each carries the wait since its own arrival.
    assert run.batch_of.tolist() == [0, 1, 1, 1]
    assert lat[1:] == pytest.approx([0.041, 0.031, 0.021], abs=1e-5)
    assert not run.refused.any()
    assert run.busy_s == pytest.approx(0.051, abs=1e-5)


def test_stale_queries_are_refused_and_count_as_misses():
    clock = FakeClock(tick=1e-7)
    arrivals = np.array([0.0, 0.001, 0.002, 0.5])

    def serve(lo, hi, batch):
        clock.t += 0.3 if batch == 0 else 0.001

    run = drive_open_loop(
        arrivals, serve, max_batch=1, refuse_after=0.1, clock=clock, sleep=clock.sleep
    )
    assert run.refused.tolist() == [False, True, True, False]
    assert math.isinf(run.latencies[1])


def test_swaps_run_before_later_batches():
    clock = FakeClock(tick=1e-7)
    arrivals = np.array([0.0, 0.2, 0.4])
    order = []

    def serve(lo, hi, batch):
        order.append(("batch", lo))
        clock.t += 0.001

    def swap(k):
        order.append(("swap", k))
        clock.t += 0.007

    run = drive_open_loop(
        arrivals, serve, max_batch=8, refuse_after=1.0, swap_at=[0.1, 0.3],
        swap=swap, clock=clock, sleep=clock.sleep,
    )
    assert order == [("batch", 0), ("swap", 0), ("batch", 1), ("swap", 1), ("batch", 2)]
    assert len(run.swaps) == 2
    assert run.busy_s == pytest.approx(3 * 0.001 + 2 * 0.007, abs=1e-5)


# ----------------------------------------------------------------------
# Tail percentiles and the max_qps ladder rule
# ----------------------------------------------------------------------
def test_tail_respects_the_sample_floor():
    assert math.isnan(tail(np.ones(99), 99))  # p99 needs >= 100 samples
    assert tail(np.arange(100, dtype=float), 99) == pytest.approx(98.01)
    assert tail(np.arange(1000, dtype=float), 50) == pytest.approx(499.5)


def test_tail_ranks_refused_queries_above_every_latency():
    lat = np.concatenate([np.full(98, 0.001), [math.inf, math.inf]])
    assert math.isinf(tail(lat, 99))
    assert tail(lat, 50) == pytest.approx(0.001)


def _step(rate, p99=0.002, refused=0, backlog=0):
    return LadderStep(rate=rate, p99_s=p99, refused=refused, backlog_end=backlog, max_batch=64)


def test_ladder_rule():
    limit = 0.010
    assert step_passes(_step(1), limit)
    assert not step_passes(_step(1, p99=0.011), limit)
    assert not step_passes(_step(1, refused=1), limit)
    assert not step_passes(_step(1, backlog=65), limit)
    assert not step_passes(_step(1, p99=float("nan")), limit)
    steps = [_step(8000, p99=0.5), _step(1000), _step(2000), _step(4000, refused=3)]
    assert max_sustained_rate(steps, limit) == 2000
    # A rate past the first failure does not count even when it passes.
    steps = [_step(1000), _step(2000, p99=0.02), _step(4000)]
    assert max_sustained_rate(steps, limit) == 1000
    assert max_sustained_rate([_step(1000, p99=0.02)], limit) == 0.0

