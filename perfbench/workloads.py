"""The benchmark's four workloads.

Every workload reports the same end-to-end metrics (see ``README.md``
for what each one means on each workload) and checks its own outputs.
``Context`` carries the seed, the run length, the optional tracer and the
operation/failure ledger; a failed check is a failed operation.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import layers
from .openloop import LadderStep, drive_open_loop, max_sustained_rate, step_passes, tail
from .spans import Tracer

EPSILON = 0.1
#: Latency limit a served query must meet (p99 target and "answered in time").
LIMIT_S = 0.010
#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Cold pipeline repetitions per run at least; ``run_s``/``warm_s`` are medians.
MIN_PIPELINE_REPEATS = 3
#: Warm re-runs after the cold schedule-drift run and after each later
#: set-up repetition; ``warm_s`` is the median of all of them.
WARM_REPEATS = 10
#: Warm re-runs after each untraced cold pipeline run.
PIPELINE_WARM_REPEATS = 3

clock = time.perf_counter


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path  #: scratch directory inside the checkout
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    tracers: list[Tracer] = field(default_factory=list)

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        """Record a correctness check; a failure fails one operation."""
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def seeded(spec, seed: int):
    """Every random stream of ``spec`` derived from the benchmark seed."""
    return spec.with_seeds(
        collect=seed,
        split=seed + 1,
        train=seed + 2,
        model_init=seed + 3,
        drift=seed + 4,
        schedule=seed + 5,
    )


def training_seeded(spec, seed: int):
    """Only the training batch draws derived from the benchmark seed.

    The campaign, split and initial weights come from the scenario's own
    seeds: with those drawn from the seed too, the quality of a
    short-trained model spread up to 0.25 (IQR/median) over ten seeds.
    """
    return spec.with_seeds(train=seed + 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    """Seconds ``fn`` takes, starting from a collected heap."""
    gc.collect()
    start = clock()
    value = fn()
    return clock() - start, value


def traced_pass(ctx: Context, body: Callable[[Tracer], object]) -> tuple[Tracer, object]:
    """Run ``body(tracer)`` with every layer boundary patched."""
    tracer = Tracer()
    layers.install(tracer)
    try:
        value = body(tracer)
    finally:
        tracer.restore()
    ctx.tracers.append(tracer)
    return tracer, value


def quality(metrics: dict) -> dict[str, float]:
    """The evaluate stage's Sec 5.1 metrics at ε=0.1, in percent."""
    at = metrics["epsilons"][repr(EPSILON)]
    return {
        "mape_iso_pct": 100.0 * metrics["mape_isolation"],
        "mape_int_pct": 100.0 * metrics["mape_interference"],
        "coverage": at["coverage"],
        "margin_pct": 100.0 * at["margin"],
    }


def coverage_slack(n_test: int, n_cal: int, n_pools: int = 4) -> float:
    """Finite-sample slack on test coverage at ε.

    Three standard deviations of the test-set estimate plus three of the
    calibration draw, whose smallest pool holds about ``n_cal/n_pools``
    scores.
    """
    var = EPSILON * (1.0 - EPSILON)
    return 3.0 * math.sqrt(var / max(n_test, 1)) + 3.0 * math.sqrt(
        var / max(n_cal / n_pools, 1.0)
    )


def bounds_match(served: np.ndarray, reference: np.ndarray) -> bool:
    """Served bounds equal the predictor's to 1e-10 (relative above 1 s)."""
    tol = 1e-10 * np.maximum(1.0, np.abs(reference))
    return bool(np.all(np.abs(served - reference) <= tol))


def model_bytes(model) -> dict[str, bytes]:
    return {name: arr.tobytes() for name, arr in model.state_dict().items()}


# ----------------------------------------------------------------------
# Bound queries: the end-to-end question every pipeline answers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Served:
    """The test split served from a pipeline's snapshot."""

    violation: float  #: share of rows whose runtime exceeds its ε-budget
    placed: float  #: share of rows served a finite budget


def serve_test_split(ctx: Context, result) -> Served:
    """Serve the whole test split from the pipeline's snapshot.

    Query by query, in 4096-row ``predict_bound`` calls through the bound
    cache of a fresh service, checked against the predictor.
    """
    test = result.split.test
    service = result.service()
    chunk = 4096
    served = np.empty(test.n_observations)
    for lo in range(0, test.n_observations, chunk):
        hi = min(lo + chunk, test.n_observations)
        served[lo:hi] = service.predict_bound(
            test.w_idx[lo:hi], test.p_idx[lo:hi], test.interferers[lo:hi], EPSILON
        )
    ctx.ops()
    reference = result.predictor.predict_bound_dataset(test, EPSILON)
    ctx.check(bounds_match(served, reference), "served bounds differ from predictor")
    return Served(
        violation=float(np.mean(test.runtime > served)),
        placed=float(np.mean(np.isfinite(served))),
    )


# ----------------------------------------------------------------------
# paper-pipeline / fleet-sparse
# ----------------------------------------------------------------------
def _warmup(ctx: Context) -> None:
    """Set-up: a small cold + warm pipeline through a store, so lazy
    imports, BLAS thread start-up and first-call paths land here rather
    than in the first timed run."""
    from repro.pipeline import run_pipeline
    from repro.scenarios import get_scenario

    spec = seeded(get_scenario("smoke").scaled(steps=300, eval_every=100), ctx.seed)
    store = ctx.fresh_dir("warmup")
    run_pipeline(spec, store=store)
    run_pipeline(spec, store=store)
    shutil.rmtree(store)


def pipeline_workload(ctx: Context, spec) -> dict[str, float]:
    from repro.pipeline import PIPELINE_STAGES, run_pipeline

    dag = tuple(s.name for s in PIPELINE_STAGES)
    dag = dag[: dag.index("snapshot") + 1]
    setup = [timed(lambda: _warmup(ctx))[0] for _ in range(1 if ctx.trace else SETUP_REPEATS)]

    cold_s, warm_s, passes, traced_cold, iteration_s = [], [], [], [], []
    last = None
    started = clock()
    k = 0
    # Repeat while another iteration is expected to end within the run.
    while k < MIN_PIPELINE_REPEATS or (
        clock() - started + statistics.mean(iteration_s) <= ctx.seconds
    ):
        begun = clock()
        store = ctx.fresh_dir(f"store{k}")
        traced = ctx.trace and k % 2 == 1

        def check_warm(w: float, warm, cold) -> None:
            """Checked at once, so only one warm result is alive at a time."""
            warm_s.append(w)
            ctx.ops()
            ctx.check(warm.executed == () and warm.cached == dag,
                      f"warm run executed {warm.executed}")
            ctx.check(
                json.dumps(warm.metrics, sort_keys=True)
                == json.dumps(cold.metrics, sort_keys=True),
                "warm metrics differ from cold",
            )
            ctx.check(model_bytes(warm.model) == model_bytes(cold.model),
                      "warm parameters differ from cold")

        def body(tracer: Tracer | None):
            if tracer is None:
                c, cold = timed(lambda: run_pipeline(spec, store=store, stop_after="snapshot"))
                for _ in range(PIPELINE_WARM_REPEATS):
                    check_warm(
                        *timed(lambda: run_pipeline(spec, store=store, stop_after="snapshot")),
                        cold,
                    )
                return c, cold, None
            with tracer.span("bench.run") as root:
                cold = run_pipeline(spec, store=store, stop_after="snapshot")
            with tracer.span("bench.warm") as wroot:
                warm = run_pipeline(spec, store=store, stop_after="snapshot")
            check_warm(wroot.duration, warm, cold)
            return root.duration, cold, root.id

        if traced:
            tracer, (c, cold, root) = traced_pass(ctx, body)
            m = layers.span_metrics(tracer, root)
            m["pipeline.store_bytes"] = dir_bytes(store)
            passes.append(m)
            traced_cold.append(c)
        else:
            c, cold, _ = body(None)
            cold_s.append(c)
        ctx.ops()
        ctx.check(cold.executed == dag, f"cold run executed {cold.executed}")
        if last is not None:
            ctx.check(
                json.dumps(cold.metrics, sort_keys=True)
                == json.dumps(last.metrics, sort_keys=True),
                "repeated cold runs disagree",
            )
        last = cold
        if not traced:
            served = serve_test_split(ctx, cold)
        shutil.rmtree(store, ignore_errors=True)
        iteration_s.append(clock() - begun)
        k += 1

    q = quality(last.metrics)
    slack = coverage_slack(last.split.n_test, last.split.n_calibration)
    ctx.check(q["coverage"] >= 1.0 - EPSILON - slack,
              f"coverage {q['coverage']:.4f} below 1-eps-{slack:.4f}")
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(cold_s),
        "warm_s": statistics.median(warm_s),
        **q,
        "budget_violation": served.violation,
        "placement_rate": served.placed,
        # Test-split bounds the cold run delivers per second.
        "max_qps": last.split.n_test / statistics.median(cold_s),
    }
    if ctx.trace:
        per_layer = layers.median_metrics(passes)
        per_layer["trace.overhead_s"] = statistics.median(traced_cold) - metrics["run_s"]
        return per_layer
    return metrics


def paper_pipeline(ctx: Context) -> dict[str, float]:
    from repro.scenarios import get_scenario

    spec = get_scenario("paper").scaled(steps=100, eval_every=50)
    return pipeline_workload(ctx, training_seeded(spec, ctx.seed))


def fleet_sparse(ctx: Context) -> dict[str, float]:
    from repro.scenarios import get_scenario

    spec = get_scenario("fleet-large").scaled(
        n_workloads=16384,
        n_platforms=2048,
        n_observations=80_000,
        steps=40,
        eval_every=20,
    )
    return pipeline_workload(ctx, training_seeded(spec, ctx.seed))


# ----------------------------------------------------------------------
# schedule-drift
# ----------------------------------------------------------------------
def schedule_drift(ctx: Context) -> dict[str, float]:
    from repro.pipeline import run_pipeline
    from repro.scenarios import get_scenario

    # The scheduler's model is set-up, trained from the scenario's own
    # seeds; the workload's inputs (arrivals, world noise, drift draws)
    # come from the benchmark seed.
    spec = get_scenario("schedule").scaled(
        steps=150,
        eval_every=75,
        epochs=10,
        jobs_per_epoch=384,
        probes_per_epoch=192,
        update_steps=40,
    ).with_seeds(drift=ctx.seed + 4, schedule=ctx.seed + 5)

    def prepare(i: int):
        store = ctx.fresh_dir(f"store{i}")
        return store, run_pipeline(spec, store=store, stop_after="evaluate")

    def simulate(store: Path):
        return run_pipeline(spec, store=store, stop_after="simulate", needed_only=True)

    setup, warm = [], []
    s, (store, prereq) = timed(lambda: prepare(0))
    setup.append(s)
    q = quality(prereq.metrics)
    slack = coverage_slack(prereq.split.n_test, prereq.split.n_calibration)
    prereq = None
    ctx.check(q["coverage"] >= 1.0 - EPSILON - slack,
              f"coverage {q['coverage']:.4f} below 1-eps-{slack:.4f}")
    if ctx.trace:
        traced_store = ctx.work / "store-traced"
        shutil.copytree(store, traced_store)
    run_s, cold = timed(lambda: simulate(store))
    ctx.ops()
    ctx.check(cold.executed == ("simulate",), f"cold run executed {cold.executed}")
    report = cold.schedule
    cold = None

    def warm_samples() -> None:
        """Warm re-runs: every stage ``simulate`` needs is loaded."""
        for _ in range(WARM_REPEATS):
            w, warmed = timed(lambda: simulate(store))
            warm.append(w)
            ctx.ops()
            ctx.check(warmed.executed == (), f"warm run executed {warmed.executed}")
            ctx.check(warmed.schedule.as_dict() == report.as_dict(),
                      "warm schedule differs from cold")

    warm_samples()
    # The other set-up repetitions come after the cold run, each followed
    # by warm re-runs, so the ``warm_s`` samples span the run.
    for i in range(1, 1 if ctx.trace else SETUP_REPEATS):
        s, (other, _) = timed(lambda: prepare(i))
        setup.append(s)
        shutil.rmtree(other)
        warm_samples()
    if ctx.trace:
        def traced(tracer: Tracer):
            with tracer.span("bench.run") as root:
                simulate(traced_store)
            return root.duration

        tracer, traced_s = traced_pass(ctx, traced)
    summary = report.summary
    adaptive = summary["steady_budget_violation_adaptive"]
    static = summary["steady_budget_violation_static"]
    ctx.check(adaptive is not None and static is not None and adaptive < static,
              f"adaptive steady violation {adaptive} not below static {static}")

    decisions = sum(e["decisions"] for e in report.adaptive + report.static)
    if ctx.trace:
        m = layers.span_metrics(tracer, 0)
        ctx.check(m["orchestration.decisions"] == decisions,
                  f"{decisions} decisions reported, {m['orchestration.decisions']} made")
        m["pipeline.store_bytes"] = dir_bytes(store)
        m["lifecycle.resets"] = sum(bool(e["reset"]) for e in report.adaptive)
        m["trace.overhead_s"] = traced_s - run_s
        return m
    totals = summary["adaptive"]
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "warm_s": statistics.median(warm),
        **q,
        "budget_violation": totals["budget_violation_rate"],
        "placement_rate": totals["placement_rate"],
        # Placement decisions (both schedulers) per second of the timed
        # simulate run.
        "max_qps": decisions / run_s,
    }


# ----------------------------------------------------------------------
# serve-open-loop
# ----------------------------------------------------------------------
#: Mean offered rates (queries/s): light (the nominal rate), below the
#: knee even inside a long burst, and far past saturation. A 2-core host
#: answers about 100k/s, so at the top rate every batch is full (the
#: per-layer ``serving.saturated_qps``), with room for a ~4x faster
#: service.
NOMINAL_RATE = 8000.0
SATURATING_RATE = 384000.0
LADDER = (NOMINAL_RATE, 16000.0, SATURATING_RATE)
#: Run order. Every rate is revisited so its samples span the run instead
#: of one moment of it (a shared host's speed swings over seconds); a rate
#: below saturation is judged on its pooled segments, so one pause does
#: not decide it; ``serving.saturated_qps`` is a median over segments.
SCHEDULE = (
    NOMINAL_RATE, SATURATING_RATE, 16000.0, SATURATING_RATE, NOMINAL_RATE,
    SATURATING_RATE, 16000.0, SATURATING_RATE, NOMINAL_RATE, SATURATING_RATE,
)
STEP_SECONDS = 1.5
SATURATED_SECONDS = 0.5
WARMUP_SECONDS = 0.5
#: Swaps run every ``SWAP_EVERY_S``, the first half an interval into a
#: segment, so short saturated segments swap too.
SWAP_EVERY_S = 0.5
MAX_BATCH = 64
REFUSE_AFTER_S = 0.25
#: Replica restarts after each untraced segment; ``warm_s`` is their median.
RESTARTS_PER_SEGMENT = 3
#: Traffic shape: Zipf workload skew and Pareto ON/OFF bursts.
ZIPF_S = 1.1
BURST = 3.0


@dataclass
class ServeSetup:
    store: Path
    result: object
    generations: list  #: [(snapshot, predictor)]: trained, then updated


def _serve_setup(ctx: Context, spec) -> ServeSetup:
    from repro.core.trainer import PitotTrainer
    from repro.pipeline import calibrate_stage, run_pipeline, snapshot_stage

    store = ctx.fresh_dir("store")
    result = run_pipeline(spec, store=store, stop_after="snapshot")
    updated = result.model.clone()
    PitotTrainer(updated, spec.trainer).update(result.split.train, steps=20, rng=11)
    return ServeSetup(
        store=store,
        result=result,
        generations=[
            (result.snapshot, result.predictor),
            (snapshot_stage(updated), calibrate_stage(spec, updated, result.split)),
        ],
    )


def segment_seconds(rate: float) -> float:
    return SATURATED_SECONDS if rate == SATURATING_RATE else STEP_SECONDS


def _queries(ctx: Context, test, rate: float, step: int):
    """One step's open-loop arrivals and the test row each query asks.

    Arrivals come from :func:`repro.serving.generate_trace` (Poisson with
    Pareto ON/OFF bursts, Zipf workload skew), time-scaled so the step
    offers exactly ``rate × seconds`` queries in its ``seconds``.
    Each query's skewed workload is mapped to one of its test rows, so it
    carries that row's platform, interferer set and true runtime.
    """
    from repro.serving.loadgen import OpenLoopConfig, generate_trace

    seconds = segment_seconds(rate)
    n = int(rate * seconds)
    trace = generate_trace(
        OpenLoopConfig(
            rate=rate / 2.0,
            duration=4.0 * seconds,
            seed=ctx.seed * 101 + step,
            zipf_s=ZIPF_S,
            burst_multiplier=BURST,
            epsilon=EPSILON,
        ),
        n_workloads=int(test.w_idx.max()) + 1,
        n_platforms=int(test.p_idx.max()) + 1,
    )
    if trace.n < n:
        raise RuntimeError(f"trace too short: {trace.n} < {n} arrivals")
    arrivals = trace.arrivals[:n] * (seconds / trace.arrivals[n - 1])
    workloads = trace.workloads[:n]
    order = np.argsort(test.w_idx, kind="stable")
    sorted_w = test.w_idx[order]
    lo = np.searchsorted(sorted_w, workloads, "left")
    hi = np.searchsorted(sorted_w, workloads, "right")
    rng = np.random.default_rng(ctx.seed * 101 + step + 50)
    u = rng.random(n)
    rows = np.where(
        hi > lo,
        order[np.minimum(lo + (u * (hi - lo)).astype(np.intp), len(order) - 1)],
        rng.integers(0, test.n_observations, size=n),
    )
    return arrivals, rows


def _check_served(ctx, run, rows, bounds, expected, reference, rate) -> None:
    """Served bounds equal the generation that was live at dispatch.

    Checked on every 8th answered query plus every query of the first
    batch after each swap (the batch a stale cache entry would reach).
    """
    sample = np.zeros(len(rows), dtype=bool)
    sample[::8] = True
    for _, swap_end in run.swaps:
        after = np.flatnonzero(run.dispatched >= swap_end)
        if after.size:
            sample |= run.batch_of == run.batch_of[after[0]]
    sample &= ~run.refused
    for g, ref in enumerate(reference):
        sel = sample & (expected == g)
        ctx.check(
            bounds_match(bounds[sel], ref[rows[sel]]),
            f"rate {rate:g}: served bound differs from generation {g}",
        )


def serve_open_loop(ctx: Context) -> dict[str, float]:
    from repro.pipeline import run_pipeline
    from repro.scenarios import get_scenario

    # The served model is set-up, trained from the scenario's own seeds;
    # the workload's input is the traffic, drawn from the benchmark seed.
    spec = get_scenario("paper").scaled(sets_per_degree=60, steps=60, eval_every=30)
    setup = []
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        prepared = None
        s, prepared = timed(lambda: _serve_setup(ctx, spec))
        setup.append(s)
    result = prepared.result
    test = result.split.test
    gens = prepared.generations
    service = result.service()
    reference = [
        pred.predict_bound(test.w_idx, test.p_idx, test.interferers, EPSILON)
        for _, pred in gens
    ]
    ctx.check(
        np.mean(~np.isclose(reference[0], reference[1], rtol=1e-6)) > 0.5,
        "generations too similar to detect a stale bound",
    )

    # Unmeasured warm-up at the nominal rate: first-call paths of both
    # generations and the set-up's garbage are paid before the ladder.
    arrivals, rows = _queries(ctx, test, NOMINAL_RATE, len(SCHEDULE))
    warm_n = int(np.searchsorted(arrivals, WARMUP_SECONDS))
    W, P, I = test.w_idx[rows], test.p_idx[rows], test.interferers[rows]
    drive_open_loop(
        arrivals[:warm_n],
        lambda lo, hi, b: service.predict_bound(W[lo:hi], P[lo:hi], I[lo:hi], EPSILON),
        max_batch=MAX_BATCH,
        refuse_after=REFUSE_AFTER_S,
        swap_at=(WARMUP_SECONDS / 2.0,),
        swap=lambda _: service.swap(*gens[1]),
    )
    gc.collect()

    warm: list[float] = []

    def restart() -> None:
        """Replica restart from the store: the serving ``warm_s``."""
        w, replica = timed(lambda: run_pipeline(spec, store=prepared.store, stop_after="snapshot"))
        t, restarted = timed(replica.service)
        warm.append(w + t)
        ctx.ops()
        ctx.check(replica.executed == (), f"replica restart executed {replica.executed}")
        ctx.check(restarted.generation == 0, "restarted replica not at generation 0")

    def ladder(tracer: Tracer | None):
        service.swap(*gens[0])
        live = [0]  # index of the installed generation

        def swap(_):
            live[0] = 1 - live[0]
            service.swap(*gens[live[0]])

        steps, runs = [], []
        for k, rate in enumerate(SCHEDULE):
            arrivals, rows = _queries(ctx, test, rate, k)
            bounds = np.full(len(rows), np.nan)
            expected = np.full(len(rows), -1, dtype=np.intp)
            W, P, I = test.w_idx[rows], test.p_idx[rows], test.interferers[rows]

            def serve(lo, hi, b):
                expected[lo:hi] = live[0]
                if tracer is None:
                    bounds[lo:hi] = service.predict_bound(W[lo:hi], P[lo:hi], I[lo:hi], EPSILON)
                    return
                with tracer.span("bench.batch", batch=b):
                    bounds[lo:hi] = service.predict_bound(W[lo:hi], P[lo:hi], I[lo:hi], EPSILON)

            gc.collect()
            run = drive_open_loop(
                arrivals,
                serve,
                max_batch=MAX_BATCH,
                refuse_after=REFUSE_AFTER_S,
                swap_at=np.arange(SWAP_EVERY_S / 2.0, segment_seconds(rate), SWAP_EVERY_S),
                swap=swap,
            )
            # Shed queries are not served operations; at the nominal rate
            # they count as failed ones below.
            ctx.ops(int((~run.refused).sum()))
            _check_served(ctx, run, rows, bounds, expected, reference, rate)
            runs.append(run)
            if tracer is None:
                # Between segments, so restart samples span the run too.
                for _ in range(RESTARTS_PER_SEGMENT):
                    restart()
            print(
                f"segment rate={rate:g}/s p50_ms={1e3 * tail(run.latencies, 50):.3f} "
                f"p99_ms={1e3 * tail(run.latencies, 99):.3f} "
                f"refused={int(run.refused.sum())} backlog_end={run.backlog_end} "
                f"batches={len(run.batches)} busy_s={run.busy_s:.3f}"
                f"{'' if tracer is None else ' (traced)'}"
            )
        steps = []
        for rate in LADDER:
            pooled = [r for x, r in zip(SCHEDULE, runs) if x == rate]
            steps.append(LadderStep(
                rate=rate,
                p99_s=tail(np.concatenate([r.latencies for r in pooled]), 99),
                refused=sum(int(r.refused.sum()) for r in pooled),
                backlog_end=max(r.backlog_end for r in pooled),
                max_batch=MAX_BATCH,
            ))
        return steps, runs

    def busy(runs) -> float:
        """Service seconds over the steps below the saturating rate."""
        return sum(r.busy_s for rate, r in zip(SCHEDULE, runs) if rate < SATURATING_RATE)

    def answered(run) -> int:
        return int((~run.refused).sum())

    def traced_ladder(tracer: Tracer):
        with tracer.span("bench.run"):
            return ladder(tracer)

    steps, runs = ladder(None)
    nominal = [r for rate, r in zip(SCHEDULE, runs) if rate == NOMINAL_RATE]
    lat = np.concatenate([r.latencies for r in nominal])
    refused = sum(int(r.refused.sum()) for r in nominal)
    if refused:
        ctx.ops(refused)
        ctx.failed += refused
        ctx.notes.append(f"{refused} queries refused at the nominal rate")
    # The ladder rule must fail at the top rate, or the ladder did not
    # reach past saturation.
    ctx.check(not step_passes(steps[-1], LIMIT_S),
              f"{SATURATING_RATE:g}/s did not saturate the service")
    if ctx.trace:
        tracer, (_, traced_runs) = traced_pass(ctx, traced_ladder)
        m = layers.span_metrics(tracer, 0)
        waits = np.concatenate([r.dispatched - r.arrivals for r in nominal])
        m["serving.hit_rate"] = service.stats.hit_rate
        m["serving.p50_ms"] = 1e3 * tail(lat, 50)
        m["serving.p99_ms"] = 1e3 * tail(lat, 99)
        m["serving.sustained_qps"] = max_sustained_rate(steps, LIMIT_S)
        m["serving.saturated_qps"] = statistics.median(
            answered(r) / r.busy_s
            for rate, r in zip(SCHEDULE, runs) if rate == SATURATING_RATE
        )
        m["serving.queue_wait_ms"] = 1e3 * float(np.nanmean(waits))
        m["serving.service_ms"] = 1e3 * float(
            np.mean([b[4] - b[3] for r in nominal for b in r.batches]))
        m["serving.gen_lag_ms"] = 1e3 * tail(
            np.concatenate([r.gen_lag for r in nominal]), 99)
        m["serving.refused"] = refused
        m["trace.overhead_s"] = busy(traced_runs) - busy(runs)
        return m
    # Capacity by the utilization law: queries answered below saturation
    # per busy second (batches plus swaps) it took to answer them.
    max_qps = sum(
        answered(r) for rate, r in zip(SCHEDULE, runs) if rate < SATURATING_RATE
    ) / busy(runs)
    return {
        "setup_s": statistics.median(setup),
        "run_s": busy(runs),
        "warm_s": statistics.median(warm),
        **quality(result.metrics),
        "budget_violation": serve_test_split(ctx, result).violation,
        "placement_rate": float(np.mean(lat <= LIMIT_S)),
        "max_qps": max_qps,
    }


WORKLOADS: dict[str, Callable[[Context], dict[str, float]]] = {
    "paper-pipeline": paper_pipeline,
    "fleet-sparse": fleet_sparse,
    "schedule-drift": schedule_drift,
    "serve-open-loop": serve_open_loop,
}

#: End-to-end metrics: name → (unit, better, bound). The bounds are wide
#: because the shared 2-core sizing host drifts: over ten seeds the
#: timings spread up to 0.22 (IQR/median), see README.md.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "warm_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
    "mape_iso_pct": ("%", "lower", 0.25),
    "mape_int_pct": ("%", "lower", 0.25),
    "coverage": ("fraction", "higher", 0.05),
    "margin_pct": ("%", "lower", 0.25),
    "budget_violation": ("fraction", "lower", 0.25),
    "placement_rate": ("fraction", "higher", 0.1),
    "max_qps": ("1/s", "higher", 0.25),
}
