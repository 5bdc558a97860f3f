"""Pitot training loop (Sec 3.6 / App B.3).

Reproduces the paper's procedure:

* AdaMax at default hyperparameters;
* fixed-size sub-batches per interference degree (512 each of 1/2/3/4-way,
  batch 2048 total) so interference compute stays shape-stable;
* multi-objective weighting: isolation weight 1.0, interference weight β
  split equally across 2/3/4-way (App D.2, β=0.5);
* periodic validation with best-checkpoint selection;
* objectives: squared log-residual (Eq. 1), pinball for the quantile
  version (Eq. 13), plus the "log" and "naive proportional" ablation
  objectives of Fig 4a.

Deviating from App B.3's "compute all embeddings" step (an optimization on
GPU, a liability on CPU), the default hot path is *batch-sparse*: each
step forwards only the entity rows its batch references through the
towers (see :func:`repro.core.model.plan_sparse_batch`), and validation
runs on the tape-free ndarray kernel. Both are row-identical to the dense
formulation; ``TrainerConfig(sparse_embeddings=False)`` restores it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.dataset import RuntimeDataset
from ..nn import (
    AdaMax,
    TapeCache,
    TapeProgram,
    TapeRecorder,
    Tensor,
    default_dtype,
    fused_pinball,
    no_grad,
    where,
)
from .config import PitotConfig, TrainerConfig
from .model import PitotModel, SparseBatchPlan, plan_sparse_batch
from .scaling import LinearScalingBaseline

__all__ = [
    "PitotTrainer",
    "TrainingResult",
    "train_pitot",
    "choose_sparse",
]

#: Auto mode runs a batch-sparse step only when the batch references at
#: most this fraction of the population; below the cutoff the pruned tower
#: rows no longer pay for the extra gather/scatter (measured crossover on
#: CPU BLAS is near 0.6; 0.5 keeps a safety margin).
SPARSE_AUTO_FRACTION = 0.5

#: Auto mode additionally requires the sparse step to prune at least this
#: many tower rows. At small populations the *fraction* test alone lets
#: sparse win on a few hundred saved rows — less than the fixed cost of
#: the unique/gather/scatter bookkeeping, which measured as a ~3% slowdown
#: at paper scale (BENCH_training_throughput ``paper_sparse``).
SPARSE_MIN_SAVED_ROWS = 768


def choose_sparse(referenced: int, population: int) -> bool:
    """Auto-mode policy: run this step batch-sparse?

    ``referenced`` is the number of unique entity rows (workloads +
    platforms) the batch touches; ``population`` the total entity count.
    Sparse must both prune a meaningful *fraction* of the population
    (:data:`SPARSE_AUTO_FRACTION`) and a meaningful *absolute* number of
    rows (:data:`SPARSE_MIN_SAVED_ROWS`) to pay for its bookkeeping.
    """
    return (
        referenced <= SPARSE_AUTO_FRACTION * population
        and population - referenced >= SPARSE_MIN_SAVED_ROWS
    )


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    model: PitotModel
    train_loss_history: list[float] = field(default_factory=list)
    val_loss_history: list[tuple[int, float]] = field(default_factory=list)
    best_val_loss: float = float("inf")
    best_step: int = -1
    steps_run: int = 0


#: Consecutive tape-cache misses tolerated before a trainer concludes the
#: batch-shape regime is unstable and stops recording (see
#: ``PitotTrainer._tape_step``). Stable regimes (dense, or sparse with
#: repeating row counts) record each distinct shape once and then hit, so
#: a streak this long only occurs when shapes genuinely never repeat.
TAPE_BAILOUT_MISSES = 4


class PitotTrainer:
    """Trains a :class:`PitotModel` on a train/validation dataset pair."""

    def __init__(
        self,
        model: PitotModel,
        config: TrainerConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or TrainerConfig()
        #: Training precision; parameters are cast lazily on first step.
        self._dtype = np.dtype(self.config.dtype)
        #: Recorded tape programs keyed by batch-shape signature.
        self._tape_cache = TapeCache()
        #: Adaptive bail-out: when batch shapes never repeat (fleet-scale
        #: sparse steps draw a different unique-row count every batch),
        #: every step would miss and pay recording overhead on top of the
        #: fused forward. After this many consecutive misses the trainer
        #: stops taping for the rest of the run and releases the cached
        #: programs; replay and the plain fused path are bitwise
        #: identical, so the switch is invisible to the loss history.
        self._tape_miss_streak = 0
        self._tape_disabled = False

    def _ensure_dtype(self) -> None:
        """Cast model parameters to the training precision (once)."""
        params = self.model.parameters()
        if params and params[0].data.dtype != self._dtype:
            self.model.cast(self._dtype)
            # Cast rebinds parameter buffers: recorded programs hold the
            # old ones and would silently train stale copies.
            self._tape_cache.invalidate()

    # ------------------------------------------------------------------
    # Targets
    # ------------------------------------------------------------------
    def _fit_baseline(
        self, train: RuntimeDataset, baseline: LinearScalingBaseline | None = None
    ) -> None:
        """Fit the linear scaling baseline on isolation rows (App B.1),
        or attach ``baseline`` when the caller already fitted it so."""
        model = self.model
        if model.config.objective != "log_residual":
            model.baseline = None
            return
        if baseline is None:
            baseline = LinearScalingBaseline(model.n_workloads, model.n_platforms)
            iso = train.isolation_mask()
            baseline.fit(
                train.w_idx[iso],
                train.p_idx[iso],
                train.log_runtime[iso],
                fallback=(train.w_idx, train.p_idx, train.log_runtime),
            )
        model.baseline = baseline

    def _targets(self, ds: RuntimeDataset) -> np.ndarray:
        """Regression targets in the model's output domain."""
        y = ds.log_runtime
        if self.model.config.objective == "log_residual":
            return y - self.model.baseline.predict(ds.w_idx, ds.p_idx)
        return y

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def _loss_elementwise(self, pred: Tensor, target: np.ndarray) -> Tensor:
        """Per-row/per-head loss matrix; ``pred`` is ``(B, H)``."""
        cfg = self.model.config
        t = target[:, None]
        if cfg.quantiles is not None:
            xi = np.asarray(cfg.quantiles)[None, :]  # (1, H)
            under = Tensor(t) - pred
            return where(under.data > 0, under * xi, under * (xi - 1.0))
        if cfg.objective == "proportional":
            # Naive proportional loss ((Ĉ-C)/C)^2 = (exp(ŷ-y)-1)^2 — the
            # Fig 4a strawman. tanh-clamped exponent keeps it finite.
            diff = pred - Tensor(t)
            clamped = (diff * (1.0 / 15.0)).tanh() * 15.0
            return (clamped.exp() - 1.0) ** 2.0
        diff = pred - Tensor(t)
        return diff * diff

    def _loss(self, pred: Tensor, target: np.ndarray) -> Tensor:
        """Mean loss for one sub-batch."""
        return self._loss_elementwise(pred, target).mean()

    def _engine_loss(self, pred: Tensor, t2d: np.ndarray, c2d: np.ndarray) -> Tensor:
        """Replayable scalar step loss, bitwise-equal to the primitive path.

        ``t2d``/``c2d`` are ``(B, 1)`` target/coefficient arrays in the
        training dtype — persistent buffers on the tape-cached path, so
        every op here captures them by reference. The quantile branch uses
        :func:`~repro.nn.fused_pinball` because the primitive ``where``
        freezes its mask at build time (non-replayable); the other
        objectives compose from replayable primitives directly.
        """
        cfg = self.model.config
        if cfg.quantiles is not None:
            xi = np.asarray(cfg.quantiles, dtype=pred.data.dtype)[None, :]
            loss_elem = fused_pinball(pred, t2d, xi)
        elif cfg.objective == "proportional":
            diff = pred - Tensor(t2d)
            clamped = (diff * (1.0 / 15.0)).tanh() * 15.0
            loss_elem = (clamped.exp() - 1.0) ** 2.0
        else:
            diff = pred - Tensor(t2d)
            loss_elem = diff * diff
        return (loss_elem * Tensor(c2d)).sum() * (1.0 / cfg.n_heads)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _degree_rows(self, ds: RuntimeDataset) -> dict[int, np.ndarray]:
        """Training row indices per degree, honoring the ablation mode."""
        mode = self.model.config.interference_mode
        degree = ds.degree
        if mode == "discard":
            return {1: np.flatnonzero(degree == 1)}
        rows = {d: np.flatnonzero(degree == d) for d in (1, 2, 3, 4)}
        return {d: r for d, r in rows.items() if len(r) > 0}

    def _degree_weight(self, degree: int, n_interference_degrees: int) -> float:
        if degree == 1:
            return 1.0
        return self.model.config.interference_weight / max(
            n_interference_degrees, 1
        )

    def evaluate_loss(
        self, ds: RuntimeDataset, targets: np.ndarray | None = None, chunk: int = 8192
    ) -> float:
        """Weighted objective on a full dataset (for checkpoint selection).

        Runs on the no-grad snapshot kernel: one tape-free tower forward,
        then plain-ndarray batch forwards through the same
        ``EmbeddingSnapshot.forward`` serving uses. The loss reuses the
        training-path ``_loss_elementwise`` under ``no_grad`` (same ops,
        no tape), so evaluation matches training values bitwise. The
        previous implementation built (and discarded) a full autograd
        graph for every validation sweep.
        """
        if ds.n_observations == 0:
            return float("nan")
        if targets is None:
            targets = self._targets(ds)
        rows_by_degree = self._degree_rows(ds)
        n_int = sum(1 for d in rows_by_degree if d > 1)
        snapshot = self.model.snapshot()
        total, weight_sum = 0.0, 0.0
        with no_grad():
            for degree, rows in rows_by_degree.items():
                w = self._degree_weight(degree, n_int)
                losses = []
                for lo in range(0, len(rows), chunk):
                    sub = rows[lo : lo + chunk]
                    pred = snapshot.forward(
                        ds.w_idx[sub],
                        ds.p_idx[sub],
                        ds.interferers[sub] if degree > 1 else None,
                    )
                    elem = self._loss_elementwise(Tensor(pred), targets[sub])
                    # Mirror Tensor.mean (sum * 1/n): bitwise-aligned
                    # with the training-path loss.
                    losses.append(
                        float(elem.data.sum() * (1.0 / elem.size)) * len(sub)
                    )
                total += w * (sum(losses) / len(rows))
                weight_sum += w
        return total / max(weight_sum, 1e-12)

    def _gradient_step(
        self,
        train: RuntimeDataset,
        train_targets: np.ndarray,
        rows_by_degree: dict[int, np.ndarray],
        n_int: int,
        any_interference: bool,
        rng: np.random.Generator,
        optimizer: AdaMax,
        force_sparse: bool | None = None,
        pool=None,
    ) -> float:
        """One weighted SGD step; returns the batch loss.

        Shared by :meth:`fit` and :meth:`update`; ``force_sparse``
        overrides the config's sparse-embedding policy (warm-start
        updates always run batch-sparse — their batches reference a tiny
        fraction of the population by construction). ``pool`` (a
        :class:`~repro.core.parallel.GradientWorkerPool`) offloads the
        gradient accumulation to forked workers over shared memory.
        """
        cfg = self.config
        optimizer.zero_grad()
        # One combined batch with per-row coefficients reproduces the
        # paper's per-degree sub-batch weighting exactly (the weighted
        # sum of per-degree means) while traversing one graph.
        batches, coeffs = [], []
        for degree, rows in rows_by_degree.items():
            size = min(cfg.batch_per_degree, len(rows))
            batch = rows[rng.integers(0, len(rows), size=size)]
            batches.append(batch)
            coeffs.append(
                np.full(size, self._degree_weight(degree, n_int) / size)
            )
        batch = np.concatenate(batches)
        coeff = np.concatenate(coeffs)
        w_idx = train.w_idx[batch]
        p_idx = train.p_idx[batch]
        interferers = train.interferers[batch] if any_interference else None
        targets_b = train_targets[batch]
        if pool is not None:
            loss = pool.step(w_idx, p_idx, interferers, targets_b, coeff)
        else:
            loss = self._batch_loss_backward(
                w_idx, p_idx, interferers, targets_b, coeff, force_sparse
            )
        optimizer.step()
        # The in-place update is a parameter write: bump the generation so
        # the memoized snapshot (and any served one) reads as stale.
        self.model.mark_updated()
        return loss

    def _batch_loss_backward(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        targets_b: np.ndarray,
        coeff: np.ndarray,
        force_sparse: bool | None = None,
    ) -> float:
        """Forward + backward for one (sub-)batch; gradients land in
        ``p.grad``. The engine core, shared by serial steps and the
        worker-pool chunk path (each worker calls it on its slice).
        """
        cfg = self.config
        # Batch-sparse step: towers run only over the unique entity
        # rows this batch references; the gathers scatter gradients
        # back to the full tables. Row-identical to the dense
        # formulation (the towers are row-independent), so auto mode
        # is free to choose per step on the pruning ratio alone.
        use_sparse = (
            cfg.sparse_embeddings if force_sparse is None else force_sparse
        )
        plan = None
        if use_sparse is not False:
            plan = plan_sparse_batch(w_idx, p_idx, interferers)
            if use_sparse is None:
                use_sparse = choose_sparse(
                    len(plan.w_rows) + len(plan.p_rows),
                    self.model.n_workloads + self.model.n_platforms,
                )
        with default_dtype(self._dtype):
            if cfg.fused_kernels and cfg.tape_cache and not self._tape_disabled:
                return self._tape_step(
                    w_idx,
                    p_idx,
                    interferers,
                    plan if use_sparse else None,
                    targets_b,
                    coeff,
                )
            fused = cfg.fused_kernels
            if use_sparse:
                embeddings = self.model.compute_embeddings_sparse(
                    plan.w_rows, plan.p_rows, fused=fused
                )
                pred = self.model.forward(
                    plan.w_local,
                    plan.p_local,
                    plan.interferers_local,
                    embeddings=embeddings,
                    fused=fused,
                )
            else:
                embeddings = self.model.compute_embeddings(fused=fused)
                pred = self.model.forward(
                    w_idx, p_idx, interferers, embeddings=embeddings, fused=fused
                )
            if fused:
                dt = self._dtype
                total_loss = self._engine_loss(
                    pred,
                    np.ascontiguousarray(targets_b[:, None], dtype=dt),
                    np.ascontiguousarray(coeff[:, None], dtype=dt),
                )
            else:
                loss_elem = self._loss_elementwise(pred, targets_b)
                total_loss = (loss_elem * Tensor(coeff[:, None])).sum() * (
                    1.0 / self.model.config.n_heads
                )
            total_loss.backward()
            return total_loss.item()

    def _tape_step(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        plan: SparseBatchPlan | None,
        targets_b: np.ndarray,
        coeff: np.ndarray,
    ) -> float:
        """Tape-cached gradient step (forward + backward).

        The batch-shape *signature* — path, batch size, interferer width,
        whether any interference is active, unique-row counts, dtype —
        fully determines the recorded graph's structure. On a hit the
        step is pure buffer rebinding + in-place replay: zero graph
        construction, zero allocation. On a miss the graph is recorded
        once against persistent input buffers and cached. Dense runs hit
        from step 2 onward; sparse steps hit whenever
        :func:`~repro.core.model.plan_sparse_batch` repeats a shape.
        """
        model = self.model
        dt = self._dtype
        sparse = plan is not None
        ints = plan.interferers_local if sparse else interferers
        mask = safe = None
        if model.config.models_interference and ints is not None:
            m = ints >= 0
            if bool(m.any()):
                mask = m.astype(dt)
                safe = np.ascontiguousarray(
                    np.where(m, ints, 0).ravel(), dtype=np.intp
                )
        signature = (
            sparse,
            len(w_idx),
            -1 if mask is None else mask.shape[1],
            len(plan.w_rows) if sparse else -1,
            len(plan.p_rows) if sparse else -1,
            dt.str,
        )
        binds: dict[str, np.ndarray] = {
            "t": targets_b[:, None],
            "coeff": coeff[:, None],
        }
        if sparse:
            binds["w_rows"] = plan.w_rows
            binds["p_rows"] = plan.p_rows
            binds["w_local"] = plan.w_local
            binds["p_local"] = plan.p_local
        else:
            binds["w_idx"] = w_idx
            binds["p_idx"] = p_idx
        if mask is not None:
            binds["mask"] = mask
            binds["safe"] = safe

        program = self._tape_cache.get(signature)
        if program is not None:
            self._tape_miss_streak = 0
            program.bind(binds)
            return program.replay()
        self._tape_miss_streak += 1
        if self._tape_miss_streak >= TAPE_BAILOUT_MISSES:
            # Shapes are not repeating: recording every step costs more
            # than it saves, and the cached programs pin step-sized
            # graphs. Fall back to the plain fused path for this run.
            self._tape_disabled = True
            self._tape_cache.invalidate()

        # Miss: materialize persistent buffers (exact training dtype for
        # floats, intp for indices — `np.asarray` inside the forward then
        # passes them through uncopied, so the graph captures them by
        # reference and `bind` re-routes future replays).
        bufs = {
            name: np.ascontiguousarray(
                value, dtype=dt if name in ("t", "coeff", "mask") else np.intp
            )
            for name, value in binds.items()
        }
        recorder = TapeRecorder()
        with recorder:
            if sparse:
                embeddings = model.compute_embeddings_sparse(
                    bufs["w_rows"], bufs["p_rows"], fused=True
                )
                pred = model.forward(
                    bufs["w_local"],
                    bufs["p_local"],
                    None,
                    embeddings=embeddings,
                    mask=bufs.get("mask"),
                    safe=bufs.get("safe"),
                    fused=True,
                )
            else:
                embeddings = model.compute_embeddings(fused=True)
                pred = model.forward(
                    bufs["w_idx"],
                    bufs["p_idx"],
                    None,
                    embeddings=embeddings,
                    mask=bufs.get("mask"),
                    safe=bufs.get("safe"),
                    fused=True,
                )
            total_loss = self._engine_loss(pred, bufs["t"], bufs["coeff"])
        total_loss.backward()
        if not self._tape_disabled:
            self._tape_cache.put(
                signature, TapeProgram(total_loss, recorder.nodes, bufs)
            )
        return total_loss.item()

    def fit(
        self,
        train: RuntimeDataset,
        validation: RuntimeDataset | None = None,
        baseline: LinearScalingBaseline | None = None,
    ) -> TrainingResult:
        """Run the full training procedure; returns history + best model
        (attaching ``baseline``, if given, instead of fitting an equal one)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        # A fresh run may have a stable batch-shape regime even if the
        # last one didn't: give taping another chance.
        self._tape_miss_streak = 0
        self._tape_disabled = False
        self._fit_baseline(train, baseline)
        train_targets = self._targets(train)
        val_targets = (
            self._targets(validation)
            if validation is not None and validation.n_observations > 0
            else None
        )
        if validation is not None and val_targets is not None:
            if validation.n_observations > cfg.max_eval_rows:
                keep = rng.choice(
                    validation.n_observations, size=cfg.max_eval_rows, replace=False
                )
                validation = validation.subset(keep)
                val_targets = self._targets(validation)

        rows_by_degree = self._degree_rows(train)
        n_int = sum(1 for d in rows_by_degree if d > 1)
        self._ensure_dtype()
        optimizer = AdaMax(self.model.parameters(), lr=cfg.learning_rate)
        result = TrainingResult(model=self.model)
        best_state = self.model.state_dict()
        best_snapshot = None

        pool = None
        if cfg.grad_workers > 0:
            from .parallel import GradientWorkerPool

            pool = GradientWorkerPool(self, cfg.grad_workers)
        any_interference = any(d > 1 for d in rows_by_degree)
        try:
            for step in range(cfg.steps):
                loss = self._gradient_step(
                    train, train_targets, rows_by_degree, n_int,
                    any_interference, rng, optimizer, pool=pool,
                )
                result.train_loss_history.append(loss)
                result.steps_run = step + 1

                if val_targets is not None and (
                    (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1
                ):
                    val_loss = self.evaluate_loss(validation, val_targets)
                    result.val_loss_history.append((step + 1, val_loss))
                    if val_loss < result.best_val_loss:
                        result.best_val_loss = val_loss
                        result.best_step = step + 1
                        best_state = self.model.state_dict()
                        # The validation pass just snapshotted exactly
                        # these parameters: a memo hit, not a tower pass.
                        best_snapshot = self.model.snapshot()
        finally:
            if pool is not None:
                pool.close()

        if val_targets is not None:
            self.model.load_state_dict(best_state)
            if best_snapshot is not None:
                # Restored parameters equal the ones that snapshot saw,
                # and the baseline is unchanged since: reuse it.
                self.model._install_snapshot(best_snapshot)
        return result

    def update(
        self,
        new_rows: RuntimeDataset,
        steps: int = 200,
        rng: np.random.Generator | int | None = None,
    ) -> TrainingResult:
        """Warm-start incremental training on freshly-streamed rows.

        The continual-learning path: instead of re-fitting from scratch
        when the fleet produces new observations, run a short burst of
        gradient steps *from the current parameters*, sampling batches
        only from ``new_rows``. Every step is forced through the
        batch-sparse planner (:func:`~repro.core.model.plan_sparse_batch`),
        so the towers forward only the entity rows the update batch
        references — an update's cost scales with the stream slice, not
        the population, which is where the ≥5x-over-retrain headroom at
        fleet scale comes from (see ``benchmarks/bench_lifecycle_update``).

        The scaling baseline and the best-checkpoint machinery are *not*
        re-run: an update is a perturbation of an already-selected model,
        and re-fitting the baseline would silently redefine the targets
        the towers were trained against. The parameter generation is
        bumped so serving snapshots read as stale and get re-promoted via
        :meth:`~repro.serving.PredictionService.swap`.

        Parameters
        ----------
        new_rows:
            Recent observations (e.g. an
            :class:`~repro.cluster.ObservationBuffer` window).
        steps:
            Gradient steps for this burst.
        rng:
            Batch-sampling stream (generator, seed, or ``None`` for the
            trainer config's seed). Lifecycle loops pass one persistent
            generator so successive update bursts draw fresh batches.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if new_rows.n_observations == 0:
            raise ValueError("update needs at least one new observation")
        if (
            self.model.config.objective == "log_residual"
            and self.model.baseline is None
        ):
            raise RuntimeError(
                "update() requires a fitted model (no scaling baseline "
                "present); run fit() before streaming updates"
            )
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(
                self.config.seed if rng is None else rng
            )
        # Update bursts sample a different slice than the last run; the
        # shape regime may be stable here even if fit()'s wasn't.
        self._tape_miss_streak = 0
        self._tape_disabled = False
        targets = self._targets(new_rows)
        rows_by_degree = self._degree_rows(new_rows)
        n_int = sum(1 for d in rows_by_degree if d > 1)
        any_interference = any(d > 1 for d in rows_by_degree)
        self._ensure_dtype()
        optimizer = AdaMax(
            self.model.parameters(), lr=self.config.learning_rate
        )
        result = TrainingResult(model=self.model)
        for step in range(steps):
            loss = self._gradient_step(
                new_rows, targets, rows_by_degree, n_int,
                any_interference, rng, optimizer, force_sparse=True,
            )
            result.train_loss_history.append(loss)
            result.steps_run = step + 1
        return result


def train_pitot(
    train: RuntimeDataset,
    validation: RuntimeDataset | None = None,
    model_config: PitotConfig | None = None,
    trainer_config: TrainerConfig | None = None,
    seed: int = 0,
    baseline: LinearScalingBaseline | None = None,
) -> TrainingResult:
    """Convenience constructor + trainer in one call."""
    model_config = model_config or PitotConfig()
    trainer_config = trainer_config or TrainerConfig(seed=seed)
    model = PitotModel(
        train.workload_features,
        train.platform_features,
        model_config,
        np.random.default_rng(seed),
    )
    trainer = PitotTrainer(model, trainer_config)
    return trainer.fit(train, validation, baseline)
