"""Command-line interface: ``python -m repro <command>``.

Wraps the library's main flows for shell use:

* ``scenarios list`` — show the named-scenario registry;
* ``pipeline run`` — run the staged ``collect → scale → train →
  calibrate → evaluate → snapshot`` pipeline for a scenario through the
  content-addressed artifact cache;
* ``collect`` — run the simulated cluster campaign, save an ``.npz``
  dataset;
* ``train`` — fit Pitot on a saved dataset, save the model;
* ``evaluate`` — MAPE / coverage / margin of a saved model on a dataset;
* ``predict`` — runtime (and optional budget) for one workload/platform
  pair with co-runners;
* ``serve`` — answer a stream of bound queries through the batched,
  embedding-cached :class:`~repro.serving.PredictionService`;
* ``bench-serve`` — compare serving throughput: per-call model forward
  vs. snapshot batching vs. LRU-cached lookups;
* ``lifecycle run`` — replay a drift scenario's observation stream
  through the continual loop (ingest → warm update → rolling
  recalibration → atomic swap) and report coverage over time against a
  never-recalibrated baseline;
* ``schedule run`` — play a scheduling scenario's job stream through
  the event-driven cluster simulator (placement on batched conformal
  budgets, deadline-risk migration, online lifecycle recalibration) and
  report per-epoch placement/violation/utilization against a
  never-recalibrated scheduler.

The one-off commands (``collect``/``train``/``evaluate``) are thin
wrappers over the same stage functions the pipeline runs — the CLI no
longer re-implements the campaign protocol, it parameterizes it.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .cluster import RuntimeDataset
from .cluster.dataset import MAX_INTERFERERS, pad_interferers
from .core import PAPER_QUANTILES, load_model, save_model
from .eval import coverage, mape, overprovision_margin
from .pipeline import (
    ArtifactStore,
    calibrate_stage,
    collect_stage,
    make_scenario_split,
    pipeline_stage_keys,
    run_pipeline,
    train_stage,
)
from .devtools.lint import add_lint_arguments
from .devtools.lint import run as _run_lint
from .scenarios import MARGIN_MODES, get_scenario, iter_scenarios
from .serving import PredictionService, ShardedPredictionService

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pitot: interference-aware edge runtime prediction "
                    "(MLSys 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenarios", help="inspect the scenario registry")
    scenario_sub = p.add_subparsers(dest="scenarios_command", required=True)
    p = scenario_sub.add_parser("list", help="list registered scenarios")
    p.add_argument("--verbose", action="store_true",
                   help="also print each scenario's knob summary")

    p = sub.add_parser("pipeline", help="run the staged scenario pipeline")
    pipeline_sub = p.add_subparsers(dest="pipeline_command", required=True)
    p = pipeline_sub.add_parser(
        "run",
        help="run collect→scale→train→calibrate→evaluate→snapshot "
             "through the artifact cache",
    )
    p.add_argument("--scenario", default="paper",
                   help="registry name (see `repro scenarios list`)")
    p.add_argument("--store", default=".repro-cache",
                   help="artifact-store root (content-addressed stage cache)")
    p.add_argument("--no-store", action="store_true",
                   help="disable caching: compute fresh, persist nothing")
    p.add_argument("--force", action="store_true",
                   help="recompute every stage even on cache hits")
    p.add_argument("--assert-warm", action="store_true",
                   help="exit 1 unless every stage was a cache hit "
                        "(CI cache validation)")
    p.add_argument("--workloads", type=int, default=None,
                   help="override the scenario's workload count")
    p.add_argument("--devices", type=int, default=None)
    p.add_argument("--runtimes", type=int, default=None)
    p.add_argument("--sets-per-degree", type=int, default=None)
    p.add_argument("--steps", type=int, default=None,
                   help="override the scenario's training steps")
    p.add_argument("--margin", default=None, choices=MARGIN_MODES,
                   help="conformal margin mode override "
                        "(naive/weighted/bootstrap/mnar)")

    p = sub.add_parser(
        "lifecycle",
        help="continual-learning lifecycle over a drift scenario",
    )
    lifecycle_sub = p.add_subparsers(dest="lifecycle_command", required=True)
    p = lifecycle_sub.add_parser(
        "run",
        help="replay the scenario's drift trace "
             "(ingest -> update -> recalibrate -> swap) and report "
             "coverage over time",
    )
    p.add_argument("--scenario", default="drifting-fleet",
                   help="a drift-enabled registry scenario")
    p.add_argument("--store", default=".repro-cache",
                   help="artifact store holding the trained snapshot "
                        "(run `repro pipeline run` first)")
    p.add_argument("--assert-warm", action="store_true",
                   help="exit 1 unless every lifecycle stage was a cache "
                        "hit (CI cache validation)")
    p.add_argument("--workloads", type=int, default=None,
                   help="override the scenario's workload count "
                        "(must match the pipeline run that trained it)")
    p.add_argument("--devices", type=int, default=None)
    p.add_argument("--runtimes", type=int, default=None)
    p.add_argument("--sets-per-degree", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--events-per-phase", type=int, default=None,
                   help="override the drift stream's per-phase volume")
    p.add_argument("--chunk", type=int, default=None,
                   help="events per lifecycle tick")
    p.add_argument("--update-steps", type=int, default=None,
                   help="warm-start gradient steps per update burst")
    p.add_argument("--margin", default=None, choices=MARGIN_MODES,
                   help="conformal margin mode override (weighted = "
                        "exponential downweighting instead of hard resets)")

    p = sub.add_parser(
        "schedule",
        help="event-driven fleet scheduling over a scenario",
    )
    schedule_sub = p.add_subparsers(dest="schedule_command", required=True)
    p = schedule_sub.add_parser(
        "run",
        help="simulate the scenario's job stream (placement on batched "
             "budgets, migration, online recalibration) and report "
             "violations/utilization per epoch",
    )
    p.add_argument("--scenario", default="schedule",
                   help="a scheduling-enabled registry scenario")
    p.add_argument("--store", default=".repro-cache",
                   help="artifact store holding the trained snapshot "
                        "(run `repro pipeline run` first)")
    p.add_argument("--assert-warm", action="store_true",
                   help="exit 1 unless every stage was a cache hit "
                        "(CI cache validation)")
    p.add_argument("--workloads", type=int, default=None,
                   help="override the scenario's workload count "
                        "(must match the pipeline run that trained it)")
    p.add_argument("--devices", type=int, default=None)
    p.add_argument("--runtimes", type=int, default=None)
    p.add_argument("--sets-per-degree", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--policy", default=None,
                   help="placement policy override "
                        "(greedy/flow/admission/random/utilization)")
    p.add_argument("--epochs", type=int, default=None,
                   help="scheduling epochs to simulate")
    p.add_argument("--jobs-per-epoch", type=int, default=None)
    p.add_argument("--warmup-events", type=int, default=None,
                   help="world-calibration window size")
    p.add_argument("--margin", default=None, choices=MARGIN_MODES,
                   help="conformal margin mode for the scheduler's live "
                        "recalibration")

    p = sub.add_parser(
        "sweep",
        help="parallel scenario sweeps over the artifact store",
    )
    sweep_sub = p.add_subparsers(dest="sweep_command", required=True)
    p = sweep_sub.add_parser(
        "run",
        help="expand a grid (scenarios x seeds x conformal modes x "
             "policies) into a deduplicated stage plan and run it on a "
             "worker pool",
    )
    p.add_argument("--grid", default=None,
                   help="JSON grid-spec file (keys: scenarios, seeds, "
                        "strategies, policies, stop_after, seed_streams, "
                        "overrides); axis flags below override it")
    p.add_argument("--scenarios", nargs="+", default=None,
                   help="scenario registry names (grid axis)")
    p.add_argument("--seeds", nargs="+", type=int, default=None,
                   help="replicate seeds (grid axis)")
    p.add_argument("--strategies", nargs="+", default=None,
                   choices=("pitot", "naive_cqr", "split"),
                   help="conformal modes (grid axis; omit = scenario default)")
    p.add_argument("--margins", nargs="+", default=None,
                   choices=MARGIN_MODES,
                   help="margin-engine modes (grid axis, orthogonal to "
                        "strategies; omit = scenario default)")
    p.add_argument("--policies", nargs="+", default=None,
                   help="scheduler policies (grid axis; needs "
                        "--stop-after simulate)")
    p.add_argument("--stop-after", default=None,
                   help="last pipeline stage per cell (default evaluate)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   dest="overrides",
                   help="leaf-knob override for every cell, e.g. "
                        "--set steps=40 (repeatable; JSON values)")
    p.add_argument("--store", default=".repro-cache",
                   help="artifact-store root shared by every cell")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = run inline)")
    p.add_argument("--start-method", choices=("fork", "spawn", "forkserver"),
                   default=None,
                   help="multiprocessing start method (platform default)")
    p.add_argument("--assert-warm", action="store_true",
                   help="exit 1 unless every task was a cache hit "
                        "(CI cache validation)")
    p.add_argument("--no-aggregate", action="store_true",
                   help="skip the replicate-aware comparison table")

    p = sub.add_parser(
        "store",
        help="inspect and maintain a content-addressed artifact store",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    p = store_sub.add_parser(
        "ls", help="list artifacts per stage (committed and partial)"
    )
    p.add_argument("--store", default=".repro-cache",
                   help="artifact-store root")
    p = store_sub.add_parser(
        "gc",
        help="prune uncommitted partial directories left by crashed runs",
    )
    p.add_argument("--store", default=".repro-cache",
                   help="artifact-store root")

    p = sub.add_parser("collect", help="run the simulated collection campaign")
    p.add_argument("output", help="output .npz dataset path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workloads", type=int, default=None,
                   help="subsample the 249-workload population")
    p.add_argument("--devices", type=int, default=None)
    p.add_argument("--runtimes", type=int, default=None)
    p.add_argument("--sets-per-degree", type=int, default=250)

    p = sub.add_parser("train", help="train Pitot on a saved dataset")
    p.add_argument("dataset", help=".npz dataset from `collect`")
    p.add_argument("output", help="output .npz model path")
    p.add_argument("--fraction", type=float, default=0.8,
                   help="training fraction (rest is held-out test)")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--hidden", type=int, nargs="+", default=[128, 128])
    p.add_argument("--embedding-dim", type=int, default=32)
    p.add_argument("--quantiles", action="store_true",
                   help="train the multi-quantile (bound-predicting) model")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="evaluate a saved model")
    p.add_argument("model", help=".npz model from `train`")
    p.add_argument("dataset", help=".npz dataset")
    p.add_argument("--fraction", type=float, default=0.8,
                   help="must match the `train` split to keep test honest")
    p.add_argument("--epsilon", type=float, default=None,
                   help="also report conformal bound quality at this rate")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("predict", help="predict one runtime")
    p.add_argument("model", help=".npz model from `train`")
    p.add_argument("--workload", type=int, required=True)
    p.add_argument("--platform", type=int, required=True)
    p.add_argument("--interferers", type=int, nargs="*", default=[])

    p = sub.add_parser(
        "serve",
        help="serve calibrated runtime budgets for a stream of queries",
    )
    p.add_argument("model", help=".npz model from `train`")
    p.add_argument("dataset", help=".npz dataset (calibration source)")
    p.add_argument("--queries", default=None,
                   help="query file, one 'workload platform [co-runners...]' "
                        "per line (default: stdin)")
    p.add_argument("--epsilon", type=float, nargs="+", default=[0.05],
                   help="miscoverage rates to calibrate and serve")
    p.add_argument("--fraction", type=float, default=0.8,
                   help="must match the `train` split to keep bounds honest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1,
                   help="serve through N worker processes over one "
                        "shared-memory snapshot (1 = in-process)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="per-shard in-flight admission bound")
    p.add_argument("--start-method", choices=("spawn", "fork"),
                   default="spawn",
                   help="multiprocessing start method for shard workers")

    p = sub.add_parser(
        "bench-serve",
        help="benchmark serving throughput (cold vs snapshot vs cached)",
    )
    p.add_argument("model", help=".npz model from `train`")
    p.add_argument("dataset", help=".npz dataset")
    p.add_argument("--n-queries", type=int, default=10_000)
    p.add_argument("--cold-queries", type=int, default=200,
                   help="cap on per-call queries timed for the cold path")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--open-loop", action="store_true",
                   help="drive a live sharded service with an open-loop "
                        "arrival trace and report tail latencies instead "
                        "of the closed-loop path comparison")
    p.add_argument("--shards", type=int, default=2,
                   help="shard workers for --open-loop")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="per-shard admission bound for --open-loop")
    p.add_argument("--rate", type=float, default=500.0,
                   help="open-loop base arrival rate, queries/sec")
    p.add_argument("--duration", type=float, default=2.0,
                   help="open-loop trace horizon, seconds")
    p.add_argument("--zipf", type=float, default=0.0,
                   help="workload hot-key skew exponent (0 = uniform)")
    p.add_argument("--burst", type=float, default=1.0,
                   help="ON-window rate multiplier for heavy-tailed "
                        "ON/OFF bursts (1 = pure Poisson)")
    p.add_argument("--start-method", choices=("spawn", "fork"),
                   default="spawn",
                   help="multiprocessing start method for shard workers")

    p = sub.add_parser(
        "lint",
        help="check repo invariants (determinism, spec schema, "
             "swap-atomicity, ...) with the AST linter",
    )
    add_lint_arguments(p)
    return parser


# ----------------------------------------------------------------------
# Scenario / pipeline commands
# ----------------------------------------------------------------------
def _cmd_scenarios_list(args) -> int:
    for spec in iter_scenarios():
        print(f"{spec.name:24s} {spec.description}")
        if args.verbose:
            print(f"{'':24s} {spec.describe()}  hash={spec.spec_hash()[:12]}")
    return 0


def _cmd_pipeline_run(args) -> int:
    try:
        spec = get_scenario(args.scenario)
        spec = spec.scaled(
            n_workloads=args.workloads,
            n_devices=args.devices,
            n_runtimes=args.runtimes,
            sets_per_degree=args.sets_per_degree,
            steps=args.steps,
            margin=args.margin,
        )
    except (KeyError, ValueError) as exc:
        # Unknown scenario, or an override the scenario rejects (e.g.
        # --devices on a synthetic fleet).
        print(exc.args[0], file=sys.stderr)
        return 2
    store = None if args.no_store else args.store
    start = time.perf_counter()
    result = run_pipeline(spec, store=store, force=args.force)
    elapsed = time.perf_counter() - start

    print(f"scenario {spec.name} (spec {spec.spec_hash()[:12]})")
    for stage, key in result.stage_keys.items():
        status = "cached " if stage in result.cached else "run    "
        print(f"  {status} {stage:10s} {key[:16]}")
    for name in ("n_train", "n_calibration", "n_test",
                 "best_val_loss", "final_train_loss",
                 "mape_isolation", "mape_interference"):
        print(f"{name}: {result.metrics[name]}")
    for eps, stats in result.metrics["epsilons"].items():
        margin = (
            "unbounded" if stats["margin"] is None else f"{stats['margin']:.2%}"
        )
        print(f"eps={eps}: coverage {stats['coverage']:.3f}, margin {margin}")
    print(f"{len(result.executed)} stage(s) run, "
          f"{len(result.cached)} cached, {elapsed:.1f}s")
    if args.assert_warm and result.executed:
        print(f"expected a fully-warm run but executed: "
              f"{list(result.executed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_lifecycle_run(args) -> int:
    try:
        spec = get_scenario(args.scenario).scaled(
            n_workloads=args.workloads,
            n_devices=args.devices,
            n_runtimes=args.runtimes,
            sets_per_degree=args.sets_per_degree,
            steps=args.steps,
            events_per_phase=args.events_per_phase,
            chunk=args.chunk,
            update_steps=args.update_steps,
            margin=args.margin,
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if not spec.drift.enabled:
        print(
            f"scenario {spec.name!r} defines no drift stream "
            f"(drift.enabled is false); pick a drift scenario such as "
            f"'drifting-fleet' (see `repro scenarios list`)",
            file=sys.stderr,
        )
        return 2
    store = ArtifactStore(args.store)
    keys = pipeline_stage_keys(spec)
    missing = [
        stage for stage in ("collect", "scale", "train", "calibrate")
        if not store.has(stage, keys[stage])
    ]
    if missing:
        print(
            f"no trained snapshot for scenario {spec.name!r} in store "
            f"{args.store!r} (missing stage(s): {', '.join(missing)}).\n"
            f"Train one first:\n"
            f"  repro pipeline run --scenario {spec.name} --store {args.store}",
            file=sys.stderr,
        )
        return 2

    start = time.perf_counter()
    result = run_pipeline(spec, store=store, stop_after="recalibrate")
    elapsed = time.perf_counter() - start
    epsilon = spec.conformal.epsilons[0]

    print(f"scenario {spec.name} (spec {spec.spec_hash()[:12]})")
    for stage in ("ingest", "update", "recalibrate"):
        status = "cached " if stage in result.cached else "run    "
        print(f"  {status} {stage:12s} {result.stage_keys[stage][:16]}")

    print(f"\ncoverage over time (eps={epsilon}, target >= {1 - epsilon:.2f}; "
          f"static = never recalibrated)")
    print(f"{'tick':>4s} {'phase':>5s} {'events':>6s} {'adaptive':>8s} "
          f"{'static':>8s} {'gen':>4s}  flags")
    for tick in result.lifecycle.ticks:
        flags = " ".join(
            name for name in ("reset", "promoted") if tick.get(name)
        )
        print(f"{tick['tick']:>4d} {tick['phase']:>5d} {tick['events']:>6d} "
              f"{tick['coverage_adaptive']:>8.3f} "
              f"{tick['coverage_static']:>8.3f} "
              f"{tick['generation']:>4d}  {flags}")

    phases = sorted({tick["phase"] for tick in result.lifecycle.ticks})
    print("\nper-phase mean coverage (adaptive vs static):")
    for phase in phases:
        rows = [t for t in result.lifecycle.ticks if t["phase"] == phase]
        events = sum(t["events"] for t in rows)
        adaptive = sum(
            t["coverage_adaptive"] * t["events"] for t in rows
        ) / events
        static = sum(t["coverage_static"] * t["events"] for t in rows) / events
        multiplier = spec.drift.phases[phase]
        print(f"  phase {phase} ({multiplier:g}x): "
              f"adaptive {adaptive:.3f}  static {static:.3f}")
    swaps = sum(1 for t in result.lifecycle.ticks if t["promoted"])
    print(f"\n{result.lifecycle.update_steps} warm-update step(s), "
          f"{swaps} atomic swap(s), {elapsed:.1f}s")
    if args.assert_warm and result.executed:
        print(f"expected a fully-warm lifecycle but executed: "
              f"{list(result.executed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_schedule_run(args) -> int:
    from .eval.reporting import format_schedule_table, percent

    try:
        spec = get_scenario(args.scenario).scaled(
            n_workloads=args.workloads,
            n_devices=args.devices,
            n_runtimes=args.runtimes,
            sets_per_degree=args.sets_per_degree,
            steps=args.steps,
            policy=args.policy,
            epochs=args.epochs,
            jobs_per_epoch=args.jobs_per_epoch,
            warmup_events=args.warmup_events,
            margin=args.margin,
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if not spec.scheduling.enabled:
        print(
            f"scenario {spec.name!r} defines no scheduling simulation "
            f"(scheduling.enabled is false); pick a scheduling scenario "
            f"such as 'schedule' (see `repro scenarios list`)",
            file=sys.stderr,
        )
        return 2
    store = ArtifactStore(args.store)
    keys = pipeline_stage_keys(spec)
    missing = [
        stage for stage in ("collect", "scale", "train", "calibrate")
        if not store.has(stage, keys[stage])
    ]
    if missing:
        print(
            f"no trained snapshot for scenario {spec.name!r} in store "
            f"{args.store!r} (missing stage(s): {', '.join(missing)}).\n"
            f"Train one first:\n"
            f"  repro pipeline run --scenario {spec.name} --store {args.store}",
            file=sys.stderr,
        )
        return 2

    start = time.perf_counter()
    result = run_pipeline(
        spec, store=store, stop_after="simulate", needed_only=True
    )
    elapsed = time.perf_counter() - start
    report = result.schedule

    print(f"scenario {spec.name} (spec {spec.spec_hash()[:12]})")
    status = "cached " if "simulate" in result.cached else "run    "
    print(f"  {status} simulate     {result.stage_keys['simulate'][:16]}")
    print(
        f"\npolicy {report.policy} over {len(report.adaptive)} epoch(s), "
        f"{report.n_platforms} platform(s), epoch {report.epoch_seconds:.2f}s"
    )
    print(format_schedule_table(
        report.adaptive, report.static, report.epsilon, report.multipliers
    ))

    summary = report.summary
    adaptive, static = summary["adaptive"], summary["static"]
    def pct(value):
        return "-" if value is None else percent(value)
    print(f"\nplacement rate: adaptive {pct(adaptive['placement_rate'])}, "
          f"static {pct(static['placement_rate'])}")
    print(f"budget violations (target {percent(report.epsilon)}): "
          f"adaptive {pct(adaptive['budget_violation_rate'])}, "
          f"static {pct(static['budget_violation_rate'])}")
    steady_a = summary["steady_budget_violation_adaptive"]
    steady_s = summary["steady_budget_violation_static"]
    degradation = summary["degradation"]
    print(f"steady state (final drift regime): adaptive {pct(steady_a)}, "
          f"static {pct(steady_s)}"
          + (f" ({degradation:.1f}x degradation)" if degradation else ""))
    latency = adaptive["mean_decision_ms"]
    if latency is not None:
        print(f"decision latency: {latency:.3f} ms/job "
              f"({adaptive['decisions_per_second']:,.0f} decisions/s)")
    print(f"{adaptive['migrations']} migration(s), "
          f"{adaptive['promotions']} promotion(s), {elapsed:.1f}s")
    if args.assert_warm and result.executed:
        print(f"expected a fully-warm schedule run but executed: "
              f"{list(result.executed)}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Sweep / store commands
# ----------------------------------------------------------------------
def _cmd_sweep_run(args) -> int:
    import json

    from .eval.reporting import format_sweep_table
    from .pipeline.stages import stage_closure
    from .scenarios.grid import parse_grid
    from .sweep import aggregate_sweep, build_plan, execute_plan

    payload: dict = {}
    if args.grid is not None:
        try:
            payload = json.loads(open(args.grid).read())
        except (OSError, ValueError) as exc:
            print(f"cannot read grid {args.grid!r}: {exc}", file=sys.stderr)
            return 2
    for axis in ("scenarios", "seeds", "strategies", "margins", "policies"):
        if getattr(args, axis) is not None:
            payload[axis] = getattr(args, axis)
    if args.stop_after is not None:
        payload["stop_after"] = args.stop_after
    if args.overrides:
        overrides = dict(payload.get("overrides") or {})
        for item in args.overrides:
            key, sep, raw = item.partition("=")
            if not sep:
                print(f"--set needs KEY=VALUE, got {item!r}", file=sys.stderr)
                return 2
            try:
                overrides[key] = json.loads(raw)
            except ValueError:
                overrides[key] = raw
        payload["overrides"] = overrides
    try:
        grid = parse_grid(payload)
        plan = build_plan(grid)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    print(f"grid {grid.grid_hash()[:12]}: {len(plan.cells)} cell(s), "
          f"{len(plan.tasks)} unique task(s) "
          f"({plan.n_deduped} shared-ancestor run(s) deduped)")
    start = time.perf_counter()
    report = execute_plan(
        plan,
        args.store,
        workers=args.workers,
        start_method=args.start_method,
        echo=print,
    )
    elapsed = time.perf_counter() - start
    counts = report.executed_stage_counts()
    by_stage = " ".join(f"{stage}={n}" for stage, n in counts.items())
    print(f"{len(report.executed)} task(s) run, "
          f"{len(report.cached)} cached, {elapsed:.1f}s on "
          f"{args.workers} worker(s)" + (f"  [{by_stage}]" if by_stage else ""))

    # Aggregate whenever a metric-bearing stage ran: evaluate (batch
    # test metrics) and/or update (drift-phase lifecycle coverage).
    closure = stage_closure(grid.stop_after)
    if not args.no_aggregate and ("evaluate" in closure
                                  or "update" in closure):
        groups = aggregate_sweep(list(plan.cells), args.store)
        print()
        print(format_sweep_table(
            groups,
            title=f"sweep results (mean ± 2se across {len(grid.seeds)} "
                  f"seed(s))",
        ))
    if args.assert_warm and report.executed:
        print(f"expected a fully-warm sweep but executed: "
              f"{[r.task_id for r in report.executed]}", file=sys.stderr)
        return 1
    return 0


def _cmd_store_ls(args) -> int:
    store = ArtifactStore(args.store)
    entries = store.entries()
    if not entries:
        print(f"store {args.store!r} is empty")
        return 0
    print(f"{'stage':10s} {'key':24s} {'scenario':24s} "
          f"{'files':>5s} {'bytes':>10s}  state")
    committed = 0
    for entry in entries:
        scenario = str(entry.meta.get("scenario", "-"))
        state = "committed" if entry.committed else "PARTIAL"
        committed += entry.committed
        print(f"{entry.stage:10s} {entry.key_prefix:24s} {scenario:24s} "
              f"{entry.n_files:>5d} {entry.n_bytes:>10,d}  {state}")
    print(f"{committed} committed artifact(s), "
          f"{len(entries) - committed} partial")
    return 0


def _cmd_store_gc(args) -> int:
    store = ArtifactStore(args.store)
    removed = store.gc()
    for stage, key_prefix in removed:
        print(f"pruned {stage}/{key_prefix}")
    print(f"{len(removed)} partial artifact dir(s) pruned")
    return 0


# ----------------------------------------------------------------------
# One-off stage commands (thin wrappers over the pipeline stages)
# ----------------------------------------------------------------------
def _paper_split(dataset, fraction: float, seed: int,
                 epsilons: tuple[float, ...] | None = None):
    """The paper scenario at a caller's fraction/seed, plus its split.

    The one place the artifact-file commands (``evaluate``/``serve``/
    ``bench-serve``) derive their partition policy, so they cannot drift
    apart from each other or from ``train``.
    """
    spec = get_scenario("paper").scaled(
        train_fraction=fraction, epsilons=epsilons
    ).with_seeds(split=seed)
    return spec, make_scenario_split(spec, dataset)


def _cmd_collect(args) -> int:
    spec = get_scenario("paper").scaled(
        n_workloads=args.workloads,
        n_devices=args.devices,
        n_runtimes=args.runtimes,
        sets_per_degree=args.sets_per_degree,
    ).with_seeds(collect=args.seed)
    dataset = collect_stage(spec)
    dataset.save(args.output)
    summary = dataset.summary()
    for key, value in summary.items():
        print(f"{key}: {value:,}")
    print(f"saved to {args.output}")
    return 0


def _cmd_train(args) -> int:
    dataset = RuntimeDataset.load(args.dataset)
    # scaled() treats None as "keep the scenario default", so the
    # quantile knob is only passed when the flag actually sets it (the
    # paper spec is non-quantile by default).
    quantile_knob = {"quantiles": PAPER_QUANTILES} if args.quantiles else {}
    spec = get_scenario("paper").scaled(
        train_fraction=args.fraction,
        steps=args.steps,
        hidden=tuple(args.hidden),
        embedding_dim=args.embedding_dim,
        **quantile_knob,
    ).with_seeds(split=args.seed, train=args.seed)
    split = make_scenario_split(spec, dataset)
    result = train_stage(spec, split)
    save_model(result.model, args.output)
    print(f"trained {args.steps} steps; best val loss "
          f"{result.best_val_loss:.5f} @ step {result.best_step}")
    print(f"saved to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    dataset = RuntimeDataset.load(args.dataset)
    spec, split = _paper_split(
        dataset, args.fraction, args.seed,
        epsilons=None if args.epsilon is None else (args.epsilon,),
    )
    test = split.test
    pred = model.predict_runtime(test.w_idx, test.p_idx, test.interferers)
    iso = test.isolation_mask()
    print(f"test rows: {test.n_observations:,}")
    print(f"MAPE without interference: {mape(pred[iso], test.runtime[iso]):.2%}")
    print(f"MAPE with interference:    {mape(pred[~iso], test.runtime[~iso]):.2%}")

    if args.epsilon is not None:
        cp = calibrate_stage(spec, model, split)
        bound = cp.predict_bound_dataset(test, args.epsilon)
        print(f"eps={args.epsilon}: coverage "
              f"{coverage(bound, test.runtime):.3f}, margin "
              f"{overprovision_margin(bound, test.runtime):.2%}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    if not 0 <= args.workload < model.n_workloads:
        print(f"workload index out of range [0, {model.n_workloads})",
              file=sys.stderr)
        return 2
    if not 0 <= args.platform < model.n_platforms:
        print(f"platform index out of range [0, {model.n_platforms})",
              file=sys.stderr)
        return 2
    interferers = None
    if args.interferers:
        if len(args.interferers) > MAX_INTERFERERS:
            print(f"at most {MAX_INTERFERERS} interferers supported",
                  file=sys.stderr)
            return 2
        if not all(0 <= i < model.n_workloads for i in args.interferers):
            print(f"interferer index out of range [0, {model.n_workloads})",
                  file=sys.stderr)
            return 2
        interferers = pad_interferers([args.interferers])
    runtime = model.predict_runtime(
        np.array([args.workload]), np.array([args.platform]), interferers
    )[0]
    print(f"predicted runtime: {runtime:.6f} s")
    return 0


def _calibrated_service(args, epsilons: tuple[float, ...]) -> PredictionService:
    """Load model + dataset, calibrate, and wrap for serving."""
    model = load_model(args.model)
    dataset = RuntimeDataset.load(args.dataset)
    _, split = _paper_split(dataset, args.fraction, args.seed)
    return PredictionService.from_model(
        model, split.calibration, epsilons=epsilons
    )


def _parse_query_line(line: str, validate):
    """Parse 'workload platform [co-runners...]'; None for comments/blank.

    Range limits are enforced by ``validate`` (the service's
    ``validate_query``) so the CLI and the queue API share one set of
    rules across the in-process and sharded front-ends.
    """
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    parts = [int(tok) for tok in stripped.split()]
    if len(parts) < 2:
        raise ValueError(f"need 'workload platform [co-runners...]': {line!r}")
    workload, platform, *co = parts
    return validate(workload, platform, co)


def _read_queries(args, validate):
    """Queries from ``--queries`` or stdin; ``None`` (after printing) on
    a read or parse failure."""
    if args.queries:
        try:
            lines = open(args.queries, encoding="utf-8")
        except OSError as exc:
            print(f"cannot read queries: {exc}", file=sys.stderr)
            return None
    else:
        lines = sys.stdin
    try:
        queries = []
        for line in lines:
            try:
                parsed = _parse_query_line(line, validate)
            except ValueError as exc:
                print(f"bad query: {exc}", file=sys.stderr)
                return None
            if parsed is not None:
                queries.append(parsed)
    finally:
        if args.queries:
            lines.close()
    return queries


def _check_epsilons(epsilons) -> bool:
    bad = [eps for eps in epsilons if not 0.0 < eps < 1.0]
    if bad:
        print(f"epsilon must be in (0, 1), got {bad}", file=sys.stderr)
    return not bad


def _print_serving_stats(stats: dict, generation: int) -> None:
    """The shared ``serve`` epilogue: cache, swap, and topology counters."""
    print(f"cache: {stats['cache_hits']} hit(s) / {stats['cache_misses']} "
          f"miss(es), hit rate {stats['hit_rate']:.1%}; "
          f"swaps: {stats['swaps']} "
          f"(invalidations: {stats['invalidations']}); "
          f"generation {generation}")
    print(f"topology: {stats['shards']} shard(s), queue depth "
          f"{stats['queue_depth']}, rejections {stats['rejections']}")


def _cmd_serve(args) -> int:
    epsilons = tuple(args.epsilon)
    if not _check_epsilons(epsilons):
        return 2
    if args.shards < 1 or args.queue_depth < 1:
        print("--shards and --queue-depth must be >= 1", file=sys.stderr)
        return 2
    if args.shards > 1:
        return _cmd_serve_sharded(args, epsilons)
    service = _calibrated_service(args, epsilons)
    queries = _read_queries(args, service.validate_query)
    if queries is None:
        return 2

    # One shared forward serves every ε (predict_log is ε-independent).
    w = np.array([q[0] for q in queries], dtype=np.intp)
    p = np.array([q[1] for q in queries], dtype=np.intp)
    ints = pad_interferers([co for _, _, co in queries])
    bounds = service.predict_bound_sweep(w, p, ints, epsilons)
    for i, (workload, platform, co) in enumerate(queries):
        budgets = " ".join(
            f"bound[eps={eps}]={bounds[i, j]:.6f}s"
            for j, eps in enumerate(epsilons)
        )
        co_text = ",".join(map(str, co)) if co else "-"
        print(f"workload={workload} platform={platform} co={co_text} {budgets}")
    print(f"served {len(queries)} queries in {service.stats.batches} "
          f"batches ({len(epsilons)} epsilon(s) from one forward pass)")
    _print_serving_stats(service.stats.as_dict(), service.generation)
    return 0


def _cmd_serve_sharded(args, epsilons: tuple[float, ...]) -> int:
    """``serve --shards N``: answer the stream through worker processes
    sharing one read-only shared-memory snapshot."""
    model = load_model(args.model)
    dataset = RuntimeDataset.load(args.dataset)
    spec, split = _paper_split(
        dataset, args.fraction, args.seed, epsilons=epsilons
    )
    predictor = calibrate_stage(spec, model, split)
    service = ShardedPredictionService.from_predictor(
        predictor,
        n_shards=args.shards,
        queue_depth=args.queue_depth,
        start_method=args.start_method,
    )
    try:
        queries = _read_queries(args, service.validate_query)
        if queries is None:
            return 2
        w = np.array([q[0] for q in queries], dtype=np.intp)
        p = np.array([q[1] for q in queries], dtype=np.intp)
        ints = pad_interferers([co for _, _, co in queries])
        per_eps = {
            eps: service.predict_bound(w, p, ints, eps) for eps in epsilons
        }
        for i, (workload, platform, co) in enumerate(queries):
            budgets = " ".join(
                f"bound[eps={eps}]={per_eps[eps][i]:.6f}s"
                for eps in epsilons
            )
            co_text = ",".join(map(str, co)) if co else "-"
            print(f"workload={workload} platform={platform} co={co_text} "
                  f"{budgets}")
        stats = service.collect_stats()
        print(f"served {len(queries)} queries across {stats.shards} "
              f"shard(s) in {stats.batches} batches")
        _print_serving_stats(stats.as_dict(), service.generation)
    finally:
        audit = service.close()
    print(f"shared-memory audit: published {audit['published']}, "
          f"reclaimed {audit['reclaimed']}, leaked {audit['leaked']}")
    return 0 if audit["leaked"] == 0 else 1


def _cmd_bench_serve_open_loop(args, epsilon: float) -> int:
    """``bench-serve --open-loop``: wall-clock tail latencies of a live
    sharded service under scheduled (coordinated-omission-free) load."""
    from .serving.loadgen import OpenLoopConfig, drive_open_loop, generate_trace

    if args.shards < 1 or args.queue_depth < 1:
        print("--shards and --queue-depth must be >= 1", file=sys.stderr)
        return 2
    try:
        config = OpenLoopConfig(
            rate=args.rate,
            duration=args.duration,
            seed=args.seed,
            zipf_s=args.zipf,
            burst_multiplier=args.burst,
            epsilon=epsilon,
        )
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    model = load_model(args.model)
    dataset = RuntimeDataset.load(args.dataset)
    spec, split = _paper_split(
        dataset, args.fraction, args.seed, epsilons=(epsilon,)
    )
    predictor = calibrate_stage(spec, model, split)
    trace = generate_trace(config, model.n_workloads, model.n_platforms)
    service = ShardedPredictionService.from_predictor(
        predictor,
        n_shards=args.shards,
        queue_depth=args.queue_depth,
        start_method=args.start_method,
    )
    try:
        result = drive_open_loop(service, trace)
        stats = service.collect_stats()
        generation = service.generation
    finally:
        audit = service.close()

    def ms(value: float) -> str:
        return "n/a" if value != value else f"{1000.0 * value:.2f} ms"

    pct = result.percentiles()
    print(f"open loop: {result.offered} queries over {config.duration:g}s "
          f"({trace.offered_rate:,.0f} q/s offered, zipf_s={args.zipf:g}, "
          f"burst={args.burst:g}x)")
    print(f"completed {result.completed}, dropped {result.dropped}, "
          f"rejections {result.rejections} "
          f"({100.0 * result.reject_rate:.1f}% of offered)")
    print(f"throughput: {result.throughput:,.0f} q/s over "
          f"{result.makespan:.2f}s makespan")
    print(f"latency from scheduled arrival: p50 {ms(pct['p50'])}, "
          f"p99 {ms(pct['p99'])}, p999 {ms(pct['p999'])}")
    _print_serving_stats(stats.as_dict(), generation)
    print(f"shared-memory audit: published {audit['published']}, "
          f"reclaimed {audit['reclaimed']}, leaked {audit['leaked']}")
    return 0 if audit["leaked"] == 0 else 1


def _cmd_bench_serve(args) -> int:
    epsilon = float(args.epsilon)
    if not _check_epsilons((epsilon,)):
        return 2
    if args.open_loop:
        return _cmd_bench_serve_open_loop(args, epsilon)
    if args.n_queries < 1 or args.cold_queries < 1:
        print("--n-queries and --cold-queries must be >= 1", file=sys.stderr)
        return 2
    model = load_model(args.model)
    dataset = RuntimeDataset.load(args.dataset)
    spec, split = _paper_split(
        dataset, args.fraction, args.seed, epsilons=(epsilon,)
    )
    predictor = calibrate_stage(spec, model, split)

    rng = np.random.default_rng(args.seed)
    test = split.test
    rows = rng.integers(0, test.n_observations, size=args.n_queries)
    w, p, k = test.w_idx[rows], test.p_idx[rows], test.interferers[rows]

    # Cold: the pre-snapshot serving story — one model forward per query.
    n_cold = min(args.cold_queries, args.n_queries)
    start = time.perf_counter()
    for i in range(n_cold):
        predictor.predict_bound(w[i : i + 1], p[i : i + 1], k[i : i + 1],
                                epsilon)
    cold_rate = n_cold / (time.perf_counter() - start)

    # Snapshot: vectorized inference-only forward, no memoization.
    service = PredictionService.from_predictor(predictor, cache_size=0)
    start = time.perf_counter()
    snapshot_bounds = service.predict_bound(w, p, k, epsilon)
    snapshot_rate = args.n_queries / (time.perf_counter() - start)

    # Cached: steady state once the LRU has seen the working set.
    cached_service = PredictionService.from_predictor(predictor)
    cached_service.predict_bound(w, p, k, epsilon)  # warm
    warm_hits, warm_misses = (
        cached_service.cache.hits, cached_service.cache.misses
    )
    start = time.perf_counter()
    cached_bounds = cached_service.predict_bound(w, p, k, epsilon)
    cached_rate = args.n_queries / (time.perf_counter() - start)
    steady_lookups = (
        cached_service.cache.hits - warm_hits
        + cached_service.cache.misses - warm_misses
    )
    steady_hit_rate = (
        (cached_service.cache.hits - warm_hits) / steady_lookups
        if steady_lookups
        else 0.0
    )

    reference = predictor.predict_bound(w[:256], p[:256], k[:256], epsilon)
    max_diff = float(np.abs(snapshot_bounds[:256] - reference).max())

    print(f"queries: {args.n_queries:,} (cold path timed on {n_cold})")
    print(f"cold per-call:  {cold_rate:12,.0f} q/s")
    print(f"snapshot batch: {snapshot_rate:12,.0f} q/s "
          f"({snapshot_rate / cold_rate:,.1f}x cold)")
    print(f"cached (LRU):   {cached_rate:12,.0f} q/s "
          f"({cached_rate / cold_rate:,.1f}x cold, steady-state hit rate "
          f"{steady_hit_rate:.1%})")
    print(f"max |snapshot - model| bound deviation: {max_diff:.2e} s")
    print(np.allclose(snapshot_bounds, cached_bounds, rtol=0, atol=1e-10)
          and "cached bounds match snapshot bounds (atol 1e-10)"
          or "WARNING: cached bounds deviate from snapshot bounds")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "scenarios":
        return _cmd_scenarios_list(args)
    if args.command == "pipeline":
        return _cmd_pipeline_run(args)
    if args.command == "lifecycle":
        return _cmd_lifecycle_run(args)
    if args.command == "schedule":
        return _cmd_schedule_run(args)
    if args.command == "sweep":
        return _cmd_sweep_run(args)
    if args.command == "store":
        return _cmd_store_ls(args) if args.store_command == "ls" \
            else _cmd_store_gc(args)
    if args.command == "lint":
        return _run_lint(args)
    handler = {
        "collect": _cmd_collect,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "predict": _cmd_predict,
        "serve": _cmd_serve,
        "bench-serve": _cmd_bench_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
