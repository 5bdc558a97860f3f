"""Which public functions the traced run wraps, and the per-layer metrics.

Each name is patched where its caller looks it up: stage functions as
globals of ``repro.pipeline.stages`` (the ``_compute_*`` helpers call
them by module-global name), ``plan_sparse_batch`` as imported into
``repro.core.trainer``, stage savers as entries of the pipeline's saver
table, methods on their classes. Span names are ``<layer>.<what>``.
"""

from __future__ import annotations

import statistics

from .spans import Tracer, attributed_share, layer_self_times, total_time

LAYERS = (
    "bench",
    "pipeline",
    "core",
    "nn",
    "conformal",
    "serving",
    "orchestration",
    "lifecycle",
)

STAGES = (
    "collect",
    "scale",
    "train",
    "calibrate",
    "evaluate",
    "snapshot",
    "simulate",
)


def _count_rows(key: str, arg: int):
    def hook(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.counters[key] += len(args[arg])

    return hook


def _count_tape(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counters["nn.tape_hits" if result is not None else "nn.tape_misses"] += 1


def install(tracer: Tracer) -> None:
    """Patch every traced layer boundary; undo with ``tracer.restore()``."""
    from repro.conformal.predictor import ConformalRuntimePredictor
    from repro.core import trainer as trainer_mod
    from repro.lifecycle.manager import LifecycleManager
    from repro.nn.optim import AdaMax
    from repro.nn.tape import TapeCache, TapeProgram
    from repro.nn.tensor import Tensor
    from repro.orchestration.oracle import BudgetOracle
    from repro.orchestration.simulator import ClusterSimulator, FleetWorld
    from repro.pipeline import stages
    from repro.pipeline.artifacts import ArtifactStore
    from repro.serving.service import PredictionService

    for stage in STAGES:
        tracer.patch(stages, f"{stage}_stage", f"pipeline.{stage}")
    saver_table = stages._SAVERS
    for stage in list(saver_table):
        tracer.patch(saver_table, stage, "pipeline.persist")
    tracer.patch(ArtifactStore, "write_dir", "pipeline.persist")
    tracer.patch(ArtifactStore, "commit", "pipeline.persist")
    tracer.patch(stages, "_try_load", "pipeline.load")

    tracer.patch(trainer_mod.PitotTrainer, "_gradient_step", "core.step")
    tracer.patch(trainer_mod, "plan_sparse_batch", "core.plan")
    tracer.patch(trainer_mod.PitotTrainer, "evaluate_loss", "core.validate")

    tracer.patch(TapeProgram, "replay", "nn.replay")
    tracer.patch(TapeCache, "get", "nn.tape_get", _count_tape)
    tracer.patch(Tensor, "backward", "nn.backward")
    tracer.patch(AdaMax, "step", "nn.optimizer")
    tracer.patch(AdaMax, "zero_grad", "nn.optimizer")

    tracer.patch(ConformalRuntimePredictor, "calibrate", "conformal.calibrate")
    tracer.patch(
        ConformalRuntimePredictor, "predict_bound_dataset", "conformal.bound_dataset"
    )

    tracer.patch(
        PredictionService, "predict_bound", "serving.bound",
        _count_rows("serving.bound_rows", 1),
    )
    tracer.patch(PredictionService, "swap", "serving.swap")

    tracer.patch(
        BudgetOracle, "budgets", "orchestration.oracle",
        _count_rows("orchestration.oracle_rows", 1),
    )
    tracer.patch(
        BudgetOracle, "budgets_arrays", "orchestration.oracle",
        _count_rows("orchestration.oracle_rows", 1),
    )
    tracer.patch(FleetWorld, "sample", "orchestration.world_sample")
    tracer.patch(FleetWorld, "sample_batch", "orchestration.world_sample")
    tracer.patch(ClusterSimulator, "_decide", "orchestration.decide")
    tracer.patch(ClusterSimulator, "run", "orchestration.simulate")

    tracer.patch(LifecycleManager, "update", "lifecycle.update")
    tracer.patch(LifecycleManager, "recalibrate", "lifecycle.recalibrate")
    tracer.patch(LifecycleManager, "promote", "lifecycle.promote")
    tracer.patch(
        LifecycleManager, "ingest", "lifecycle.ingest",
        _count_rows("lifecycle.ingest_rows", 1),
    )


#: Every per-layer metric: name → (unit, better). The traced run prints
#: all of them on every workload; a layer a workload bypasses reads 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"pipeline.{s}_s": ("s", "lower") for s in STAGES},
    "pipeline.persist_s": ("s", "lower"),
    "pipeline.load_s": ("s", "lower"),
    "pipeline.store_bytes": ("bytes", "lower"),
    "core.steps": ("count", "higher"),
    "core.step_ms": ("ms", "lower"),
    "core.plan_s": ("s", "lower"),
    "core.plan_calls": ("count", "lower"),
    "core.validate_s": ("s", "lower"),
    "nn.replay_s": ("s", "lower"),
    "nn.tape_hits": ("count", "higher"),
    "nn.tape_misses": ("count", "lower"),
    "nn.tape_hit_ratio": ("ratio", "higher"),
    "nn.backward_s": ("s", "lower"),
    "nn.optimizer_s": ("s", "lower"),
    "conformal.calibrate_s": ("s", "lower"),
    "conformal.calibrate_calls": ("count", "lower"),
    "conformal.bound_dataset_s": ("s", "lower"),
    "serving.bound_calls": ("count", "lower"),
    "serving.bound_s": ("s", "lower"),
    "serving.rows_per_call": ("rows", "higher"),
    "serving.hit_rate": ("ratio", "higher"),
    "serving.swaps": ("count", "higher"),
    "serving.swap_s": ("s", "lower"),
    "serving.p50_ms": ("ms", "lower"),
    "serving.p99_ms": ("ms", "lower"),
    "serving.sustained_qps": ("1/s", "higher"),
    "serving.saturated_qps": ("1/s", "higher"),
    "serving.queue_wait_ms": ("ms", "lower"),
    "serving.service_ms": ("ms", "lower"),
    "serving.gen_lag_ms": ("ms", "lower"),
    "serving.refused": ("count", "lower"),
    "orchestration.oracle_calls": ("count", "lower"),
    "orchestration.oracle_s": ("s", "lower"),
    "orchestration.oracle_rows": ("rows", "lower"),
    "orchestration.world_sample_s": ("s", "lower"),
    "orchestration.decisions": ("count", "higher"),
    "lifecycle.update_s": ("s", "lower"),
    "lifecycle.update_calls": ("count", "lower"),
    "lifecycle.recalibrate_s": ("s", "lower"),
    "lifecycle.promote_s": ("s", "lower"),
    "lifecycle.ingest_s": ("s", "lower"),
    "lifecycle.ingest_rows": ("rows", "higher"),
    "lifecycle.promotions": ("count", "higher"),
    "lifecycle.resets": ("count", "lower"),
    **{f"self.{layer}_s": ("s", "lower") for layer in LAYERS},
    "trace.attributed_share": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def span_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``root`` is the ``bench.run`` span (the cold timed phase): the
    attributed share and the layer self times are taken under it. Stage
    and layer totals cover every span of the pass (a warm re-run's loads
    included).
    """
    spans = tracer.spans
    c = tracer.counters

    def t(name: str) -> float:
        return total_time(spans, name)

    m: dict[str, float] = {f"pipeline.{s}_s": t(f"pipeline.{s}") for s in STAGES}
    m["pipeline.persist_s"] = t("pipeline.persist")
    m["pipeline.load_s"] = t("pipeline.load")
    steps = c["core.step.calls"]
    m["core.steps"] = steps
    m["core.step_ms"] = 1e3 * t("core.step") / steps if steps else 0.0
    m["core.plan_s"] = t("core.plan")
    m["core.plan_calls"] = c["core.plan.calls"]
    m["core.validate_s"] = t("core.validate")
    m["nn.replay_s"] = t("nn.replay")
    hits, misses = c["nn.tape_hits"], c["nn.tape_misses"]
    m["nn.tape_hits"] = hits
    m["nn.tape_misses"] = misses
    m["nn.tape_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["nn.backward_s"] = t("nn.backward")
    m["nn.optimizer_s"] = t("nn.optimizer")
    m["conformal.calibrate_s"] = t("conformal.calibrate")
    m["conformal.calibrate_calls"] = c["conformal.calibrate.calls"]
    m["conformal.bound_dataset_s"] = t("conformal.bound_dataset")
    calls = c["serving.bound.calls"]
    m["serving.bound_calls"] = calls
    m["serving.bound_s"] = t("serving.bound")
    m["serving.rows_per_call"] = c["serving.bound_rows"] / calls if calls else 0.0
    m["serving.swaps"] = c["serving.swap.calls"]
    m["serving.swap_s"] = t("serving.swap")
    m["orchestration.oracle_calls"] = c["orchestration.oracle.calls"]
    m["orchestration.oracle_s"] = t("orchestration.oracle")
    m["orchestration.oracle_rows"] = c["orchestration.oracle_rows"]
    m["orchestration.world_sample_s"] = t("orchestration.world_sample")
    m["orchestration.decisions"] = c["orchestration.decide.calls"]
    m["lifecycle.update_s"] = t("lifecycle.update")
    m["lifecycle.update_calls"] = c["lifecycle.update.calls"]
    m["lifecycle.recalibrate_s"] = t("lifecycle.recalibrate")
    m["lifecycle.promote_s"] = t("lifecycle.promote")
    m["lifecycle.ingest_s"] = t("lifecycle.ingest")
    m["lifecycle.ingest_rows"] = c["lifecycle.ingest_rows"]
    m["lifecycle.promotions"] = c["lifecycle.promote.calls"]
    own = layer_self_times(spans, root)
    for layer in LAYERS:
        m[f"self.{layer}_s"] = own.get(layer, 0.0)
    m["trace.attributed_share"] = attributed_share(spans, root)
    m["trace.spans"] = len(spans)
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median over several traced passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
