"""The prediction service: snapshot forward + micro-batching + LRU.

Serving cost model (why each piece exists):

* ``PitotModel.predict_log`` re-runs both towers through the autograd
  engine on *every* call — training-time cost per query. The
  :class:`~repro.core.EmbeddingSnapshot` pays that cost once and serves
  every subsequent query with one gather-and-GEMM forward.
* Orchestration consumers (placement sweeps, admission storms) issue
  many small queries of mixed interference degree. Grouping them into
  shape-stable per-degree batches keeps the interference term off the
  isolation queries and the GEMMs fat.
* The same ``(workload, platform, interferer-set, ε)`` bound is asked
  for repeatedly (greedy placement revalidates co-residents on every
  candidate platform), so a bounded LRU turns the steady state into
  dictionary lookups. Interferer sets are canonicalized to sorted order:
  the interference sum is commutative over interferers, so permutations
  share one entry.

Continual-learning contract (why :class:`ServingState` exists):

* The lifecycle loop retrains and recalibrates while queries are in
  flight. Everything a bound depends on — embeddings, head choices,
  pool policy, and the memoized bounds themselves — lives in one
  immutable, generation-tagged :class:`ServingState`; every query path
  captures the state reference exactly once, so a concurrent
  :meth:`PredictionService.swap` can never produce a torn read (new
  offsets against old embeddings, or a pre-swap bound served from the
  post-swap cache). Swapping installs a *fresh* cache: in-flight writers
  finish into the orphaned old cache, which is unreachable from any new
  query.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..cluster.dataset import MAX_INTERFERERS, pad_interferers
from ..conformal.predictor import (
    ConformalRuntimePredictor,
    HeadChoice,
    HeadOffsetTable,
    calibration_pools,
    interference_pools,
)
from ..core.model import EmbeddingSnapshot, PitotModel

__all__ = [
    "PredictionService",
    "BoundCache",
    "ServiceStats",
    "ServingState",
    "validate_query",
    "validate_choice_heads",
]

#: Cache key: (workload, platform, sorted interferer tuple, epsilon).
_Key = tuple[int, int, tuple[int, ...], float]


def validate_query(
    workload: int,
    platform: int,
    interferers: tuple[int, ...] | list[int],
    n_workloads: int,
    n_platforms: int,
) -> tuple[int, int, tuple[int, ...]]:
    """Range-check one query against the population limits.

    Raises ``ValueError`` naming the offending field; returns the
    canonicalized ``(workload, platform, co)`` triple with the dataset's
    ``-1`` padding sentinel stripped. Any other negative index is
    rejected as a typo rather than silently served as isolation.

    Module-level so every front-end — the in-process service, the
    sharded router (which validates *before* paying a cross-process
    hop), and the CLI — shares one set of rules.
    """
    co = tuple(int(x) for x in interferers if int(x) != -1)
    if len(co) > MAX_INTERFERERS:
        raise ValueError(
            f"at most {MAX_INTERFERERS} interferers supported, got {len(co)}"
        )
    workload, platform = int(workload), int(platform)
    if not 0 <= workload < n_workloads:
        raise ValueError(
            f"workload {workload} out of range [0, {n_workloads})"
        )
    if not 0 <= platform < n_platforms:
        raise ValueError(
            f"platform {platform} out of range [0, {n_platforms})"
        )
    for runner in co:
        if not 0 <= runner < n_workloads:
            raise ValueError(
                f"interferer {runner} out of range [0, {n_workloads})"
            )
    return workload, platform, co


def validate_choice_heads(
    choices: dict[tuple[float, int], HeadChoice], n_heads: int
) -> None:
    """Reject calibrated choices that index heads the snapshot lacks.

    The guard every promotion path runs before installing a
    ``(snapshot, choices)`` pair: a head mismatch means the two
    artifacts came from different models, and serving them together
    would silently select garbage quantiles.
    """
    for (eps, pool), choice in choices.items():
        if not 0 <= choice.head < n_heads:
            raise ValueError(
                f"choice for (eps={eps}, pool={pool}) selects head "
                f"{choice.head}, but the snapshot has {n_heads} head(s); "
                f"snapshot and predictor are from different models"
            )


class BoundCache:
    """Bounded LRU for memoized bounds.

    ``capacity == 0`` disables caching entirely (every lookup misses and
    nothing is stored) — the configuration benchmarks use to time the
    raw snapshot path.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[_Key, float] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: _Key) -> float | None:
        """Value for ``key`` (refreshing recency), or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: _Key, value: float) -> None:
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ServiceStats:
    """Observability counters for one serving front-end.

    The cache counters are cumulative across generations (each
    :meth:`PredictionService.swap` installs a fresh :class:`BoundCache`
    whose own counters restart at zero), so steady-state dashboards keep
    a continuous series across promotions.

    The sharding fields describe the front-end topology: an in-process
    :class:`PredictionService` is one shard with no admission queue; a
    :class:`~repro.serving.ShardedPredictionService` reports its replica
    count, the bounded per-shard admission depth, and how many
    submissions were rejected with backpressure.
    """

    queries: int = 0  #: bound queries received (rows, not calls)
    rows_computed: int = 0  #: rows that reached the snapshot forward
    batches: int = 0  #: shape-stable sub-batches executed
    flushes: int = 0  #: micro-batch queue drains
    cache_hits: int = 0  #: memoized bound lookups served from the LRU
    cache_misses: int = 0  #: lookups that fell through to the snapshot
    swaps: int = 0  #: generation promotions (swap/refresh)
    invalidations: int = 0  #: cache invalidation events (one per swap)
    shards: int = 1  #: serving replicas behind this front-end
    queue_depth: int = 0  #: bounded admission depth per shard (0 = none)
    rejections: int = 0  #: submissions refused with retry-after backpressure

    @property
    def hit_rate(self) -> float:
        """Lifetime cache hit rate across all serving generations.

        Guarded against the zero-lookup state (a freshly started or
        never-queried service): no lookups means a rate of 0.0, not a
        ``ZeroDivisionError`` in a dashboard.
        """
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def as_dict(self) -> dict[str, int | float]:
        return {
            "queries": self.queries,
            "rows_computed": self.rows_computed,
            "batches": self.batches,
            "flushes": self.flushes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "swaps": self.swaps,
            "invalidations": self.invalidations,
            "shards": self.shards,
            "queue_depth": self.queue_depth,
            "rejections": self.rejections,
        }


@dataclass(frozen=True)
class ServingState:
    """One immutable serving generation, promoted atomically.

    Bundles everything a bound computation reads — frozen embeddings,
    calibrated head choices, the pool policy, and the generation's own
    bound cache — so a query that captured this object once can never
    mix artifacts from two generations. Python attribute assignment is
    atomic, which makes ``service._state = new_state`` the entire
    promotion protocol.
    """

    snapshot: EmbeddingSnapshot
    choices: dict[tuple[float, int], HeadChoice]
    use_pools: bool
    cache: BoundCache
    generation: int
    #: Dense per-ε (pool → head/offset) lookup, built once per
    #: generation. Invalidation rides the same promotion protocol as the
    #: bound cache: a new generation gets a fresh table, so offsets from
    #: superseded calibrations are unreachable.
    table: HeadOffsetTable = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.table is None:
            object.__setattr__(self, "table", HeadOffsetTable(self.choices))


@dataclass(frozen=True)
class _PendingQuery:
    workload: int
    platform: int
    interferers: tuple[int, ...]
    epsilon: float


class PredictionService:
    """Batched, cached serving front-end over a trained Pitot model.

    Speaks both existing protocols:

    * ``predict_log(w_idx, p_idx, interferers) → (n, H)`` — so a
      :class:`~repro.conformal.ConformalRuntimePredictor` can calibrate
      against the service exactly as it would against the raw model;
    * ``predict_bound(w_idx, p_idx, interferers, epsilon) → seconds`` —
      so :func:`~repro.orchestration.greedy_placement`,
      :func:`~repro.orchestration.flow_placement`, and
      :class:`~repro.orchestration.AdmissionController` consume it
      unchanged.

    Parameters
    ----------
    snapshot:
        Frozen embeddings of the trained model.
    choices:
        Calibrated ``(ε, pool) → HeadChoice`` mapping (from a
        :class:`ConformalRuntimePredictor`); may be empty when the
        service is only used for point predictions.
    use_pools:
        Whether bounds use per-degree calibration pools (must match the
        calibration that produced ``choices``).
    cache_size:
        LRU capacity in entries; 0 disables memoization.
    max_batch:
        Upper bound on rows per shape-stable sub-batch.
    """

    def __init__(
        self,
        snapshot: EmbeddingSnapshot,
        choices: dict[tuple[float, int], HeadChoice] | None = None,
        use_pools: bool = True,
        cache_size: int = 65536,
        max_batch: int = 8192,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._state = ServingState(
            snapshot=snapshot,
            choices=dict(choices or {}),
            use_pools=use_pools,
            cache=BoundCache(cache_size),
            generation=0,
        )
        self.max_batch = max_batch
        self.stats = ServiceStats()
        self._queue: list[_PendingQuery] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_predictor(
        cls,
        predictor: ConformalRuntimePredictor,
        cache_size: int = 65536,
        max_batch: int = 8192,
    ) -> "PredictionService":
        """Snapshot a calibrated predictor's model and adopt its choices."""
        return cls(
            predictor.model.snapshot(),
            choices=predictor.choices,
            use_pools=predictor.use_pools,
            cache_size=cache_size,
            max_batch=max_batch,
        )

    @classmethod
    def from_model(
        cls,
        model: PitotModel,
        calibration,
        epsilons: tuple[float, ...] = (0.1, 0.05, 0.01),
        strategy: str | None = None,
        use_pools: bool = True,
        cache_size: int = 65536,
        max_batch: int = 8192,
    ) -> "PredictionService":
        """Calibrate ``model`` on ``calibration`` and wrap it for serving.

        ``strategy`` defaults to ``"pitot"`` for quantile models and
        ``"split"`` for point predictors (how the paper calibrates each).
        """
        quantiles = model.config.quantiles
        if strategy is None:
            strategy = "pitot" if quantiles else "split"
        predictor = ConformalRuntimePredictor(
            model, quantiles=quantiles, strategy=strategy, use_pools=use_pools
        ).calibrate(calibration, epsilons=epsilons)
        return cls.from_predictor(
            predictor, cache_size=cache_size, max_batch=max_batch
        )

    # ------------------------------------------------------------------
    # State access (delegates to the current generation)
    # ------------------------------------------------------------------
    @property
    def state(self) -> ServingState:
        """The current serving generation (capture once per operation)."""
        return self._state

    @property
    def snapshot(self) -> EmbeddingSnapshot:
        return self._state.snapshot

    @property
    def choices(self) -> dict[tuple[float, int], HeadChoice]:
        return self._state.choices

    @choices.setter
    def choices(self, choices: dict[tuple[float, int], HeadChoice]) -> None:
        # Re-bundling keeps the atomicity invariant even for direct
        # choice edits (tests simulate dropped calibrations this way).
        # The cache is replaced, not kept: bounds memoized under the old
        # choices must be unreachable under the new ones — the same
        # stale-bound rule swap() enforces.
        state = self._state
        self._state = ServingState(
            snapshot=state.snapshot,
            choices=dict(choices),
            use_pools=state.use_pools,
            cache=BoundCache(state.cache.capacity),
            generation=state.generation,
        )
        self.stats.invalidations += 1

    @property
    def use_pools(self) -> bool:
        return self._state.use_pools

    @property
    def cache(self) -> BoundCache:
        """The current generation's bound cache."""
        return self._state.cache

    @property
    def generation(self) -> int:
        """Monotonic serving generation (bumped by every swap/refresh)."""
        return self._state.generation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def calibrated_epsilons(self) -> tuple[float, ...]:
        return tuple(sorted({eps for eps, pool in self.choices if pool == -1}))

    @property
    def n_workloads(self) -> int:
        return self._state.snapshot.n_workloads

    @property
    def n_platforms(self) -> int:
        return self._state.snapshot.n_platforms

    def is_stale(self, model: PitotModel) -> bool:
        """True when ``model`` was re-fitted after this service's snapshot."""
        return self._state.snapshot.is_stale(model)

    # ------------------------------------------------------------------
    # Generation promotion
    # ------------------------------------------------------------------
    def swap(
        self,
        snapshot: EmbeddingSnapshot,
        predictor: ConformalRuntimePredictor,
    ) -> int:
        """Atomically promote a new ``(snapshot, predictor)`` generation.

        The continual-learning hand-off: after a warm-start update and a
        rolling recalibration, the lifecycle promotes the new artifacts
        in one attribute store. Queries already in flight finish against
        the generation they captured; every query that starts after the
        swap sees the new snapshot, the new head choices, *and* an empty
        :class:`BoundCache` — a bound memoized under the old generation
        is unreachable, so a stale budget can never be served
        (recorded as an ``invalidations`` event in :class:`ServiceStats`).

        Returns the new generation number.
        """
        choices = dict(predictor.choices)
        validate_choice_heads(choices, snapshot.config.n_heads)
        old = self._state
        new = ServingState(
            snapshot=snapshot,
            choices=choices,
            use_pools=predictor.use_pools,
            cache=BoundCache(old.cache.capacity),
            generation=old.generation + 1,
        )
        self._state = new
        self.stats.swaps += 1
        self.stats.invalidations += 1
        return new.generation

    def refresh(self, predictor: ConformalRuntimePredictor) -> None:
        """Re-snapshot after retraining/recalibration.

        Convenience wrapper over :meth:`swap`: snapshots the predictor's
        model and promotes it. The old generation's cache is dropped
        wholesale — after a refresh, no previously-memoized bound can be
        served.
        """
        self.swap(predictor.model.snapshot(), predictor)

    # ------------------------------------------------------------------
    # Model protocol: predict_log
    # ------------------------------------------------------------------
    def predict_log(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
    ) -> np.ndarray:
        """Log-runtime predictions ``(n, H)`` via degree-grouped batches.

        Rows are regrouped by interference degree so isolation rows skip
        the interference term entirely and interference rows run in
        shape-stable batches; results are scattered back to input order
        and match :meth:`PitotModel.predict_log` bitwise.
        """
        return self._predict_log(self._state, w_idx, p_idx, interferers)

    def _predict_log(
        self,
        state: ServingState,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
    ) -> np.ndarray:
        """The forward under one captured generation (see module docs)."""
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        n = len(w_idx)
        if interferers is not None:
            interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
            if len(interferers) != n:
                # EmbeddingSnapshot.predict_log raises the same error;
                # silently scattering would leave uninitialized rows.
                raise ValueError(
                    f"interferers has {len(interferers)} rows for {n} queries"
                )
        snapshot = state.snapshot
        out = np.empty((n, snapshot.config.n_heads))
        for rows, sub_interferers in self._degree_groups(interferers, n):
            for lo in range(0, len(rows), self.max_batch):
                batch = rows[lo : lo + self.max_batch]
                batch_int = (
                    None
                    if sub_interferers is None
                    else sub_interferers[lo : lo + self.max_batch]
                )
                out[batch] = snapshot.forward(
                    w_idx[batch], p_idx[batch], batch_int
                )
                self.stats.batches += 1
                self.stats.rows_computed += len(batch)
        return out + snapshot.baseline_log(w_idx, p_idx)[:, None]

    def _degree_groups(self, interferers: np.ndarray | None, n: int):
        """Yield ``(row_indices, interferer_rows | None)`` per degree.

        ``interferers`` is already normalized to an ``(n, K)`` matrix by
        :meth:`predict_log`.
        """
        if interferers is None:
            yield np.arange(n), None
            return
        degrees = interference_pools(interferers, n)
        for degree in np.unique(degrees):
            rows = np.flatnonzero(degrees == degree)
            yield rows, None if degree == 1 else interferers[rows]

    def predict_runtime(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
        head: int = 0,
    ) -> np.ndarray:
        """Point runtime prediction in seconds (one head)."""
        return np.exp(self.predict_log(w_idx, p_idx, interferers)[:, head])

    # ------------------------------------------------------------------
    # Bound protocol: predict_bound (memoized)
    # ------------------------------------------------------------------
    def predict_bound(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        epsilon: float,
    ) -> np.ndarray:
        """Runtime budgets (seconds) with ``Pr(C* > bound) ≤ ε``.

        Matches :meth:`ConformalRuntimePredictor.predict_bound` on the
        wrapped model to within floating-point commutativity of the
        interferer sum (≪ 1e-10). The whole call runs under one captured
        generation: a concurrent :meth:`swap` affects only calls that
        start after it.
        """
        return self._predict_bound(
            self._state, w_idx, p_idx, interferers, epsilon
        )

    def _predict_bound(
        self,
        state: ServingState,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        epsilon: float,
    ) -> np.ndarray:
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        n = len(w_idx)
        epsilon = float(epsilon)
        if (epsilon, -1) not in state.choices:
            raise RuntimeError(
                f"service not calibrated for epsilon={epsilon}; "
                f"calibrated: {sorted({e for e, p in state.choices if p == -1})}"
            )
        rows_int = (
            None
            if interferers is None
            else np.atleast_2d(np.asarray(interferers, dtype=np.intp))
        )
        if rows_int is not None and len(rows_int) != n:
            raise ValueError(
                f"interferers has {len(rows_int)} rows for {n} queries"
            )
        self.stats.queries += n

        cache = state.cache
        bounds = np.empty(n)
        if cache.capacity == 0:
            self.stats.cache_misses += n
            misses = np.arange(n)
        else:
            keys = [
                self._key(w_idx[i], p_idx[i], rows_int, i, epsilon)
                for i in range(n)
            ]
            miss_list = []
            for i, key in enumerate(keys):
                cached = cache.get(key)
                if cached is None:
                    miss_list.append(i)
                else:
                    bounds[i] = cached
            self.stats.cache_hits += n - len(miss_list)
            self.stats.cache_misses += len(miss_list)
            if not miss_list:
                return bounds
            misses = np.asarray(miss_list, dtype=np.intp)

        sub_int = None if rows_int is None else rows_int[misses]
        pred = self._predict_log(state, w_idx[misses], p_idx[misses], sub_int)
        pools = calibration_pools(sub_int, len(misses), state.use_pools)
        heads, offsets = state.table.resolve(epsilon, pools)
        fresh = np.exp(pred[np.arange(len(misses)), heads] + offsets)
        bounds[misses] = fresh
        if cache.capacity > 0:
            # Writes go to the *captured* generation's cache: if a swap
            # landed mid-computation these entries are orphaned with it,
            # never served against the new snapshot.
            for i, value in zip(misses, fresh):
                cache.put(keys[i], float(value))
        return bounds

    @staticmethod
    def _key(
        workload: np.intp,
        platform: np.intp,
        interferers: np.ndarray | None,
        row: int,
        epsilon: float,
    ) -> _Key:
        if interferers is None:
            co = ()
        else:
            co = tuple(sorted(int(x) for x in interferers[row] if x >= 0))
        return (int(workload), int(platform), co, epsilon)

    def predict_bound_dataset(self, ds, epsilon: float) -> np.ndarray:
        """Bounds for every row of a dataset.

        Bulk one-shot scoring: routed through the cache-bypassing sweep
        so a large dataset neither pays per-row key building nor evicts
        the hot working set that planner queries rely on.
        """
        return self.predict_bound_sweep(
            ds.w_idx, ds.p_idx, ds.interferers, (epsilon,)
        )[:, 0]

    def predict_bound_sweep(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        epsilons: tuple[float, ...],
    ) -> np.ndarray:
        """Bounds at several ε from one shared forward; ``(n, len(ε))``.

        The paper's "one model, any ε" story in one call: the embedding
        forward is ε-independent, so it runs once and each ε only pays
        the vectorized head/offset resolution. Bypasses the LRU (sweeps
        are one-shot by nature); column *j* equals
        ``predict_bound(..., epsilons[j])`` exactly.
        """
        state = self._state
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        n = len(w_idx)
        epsilons = tuple(float(eps) for eps in epsilons)
        calibrated = sorted({e for e, p in state.choices if p == -1})
        for eps in epsilons:
            if (eps, -1) not in state.choices:
                raise RuntimeError(
                    f"service not calibrated for epsilon={eps}; "
                    f"calibrated: {calibrated}"
                )
        self.stats.queries += n * len(epsilons)
        pred = self._predict_log(state, w_idx, p_idx, interferers)
        pools = calibration_pools(interferers, n, state.use_pools)
        out = np.empty((n, len(epsilons)))
        for j, eps in enumerate(epsilons):
            heads, offsets = state.table.resolve(eps, pools)
            out[:, j] = np.exp(pred[np.arange(n), heads] + offsets)
        return out

    # ------------------------------------------------------------------
    # Micro-batch queue
    # ------------------------------------------------------------------
    def submit(
        self,
        workload: int,
        platform: int,
        interferers: tuple[int, ...] | list[int] = (),
        epsilon: float = 0.05,
    ) -> int:
        """Enqueue one bound query; returns its ticket (flush position).

        Queries are fully validated here — indices *and* ε — so a bad
        one is rejected at submission instead of poisoning the whole
        flush.
        """
        workload, platform, co = self.validate_query(
            workload, platform, interferers
        )
        epsilon = float(epsilon)
        if (epsilon, -1) not in self.choices:
            raise ValueError(
                f"service not calibrated for epsilon={epsilon}; "
                f"calibrated: {list(self.calibrated_epsilons)}"
            )
        self._queue.append(
            _PendingQuery(workload, platform, co, epsilon)
        )
        return len(self._queue) - 1

    def validate_query(
        self,
        workload: int,
        platform: int,
        interferers: tuple[int, ...] | list[int] = (),
    ) -> tuple[int, int, tuple[int, ...]]:
        """Range-check one query; raises ``ValueError`` with a message
        naming the offending field. Returns the canonicalized
        ``(workload, platform, co)`` triple (``-1`` padding stripped).

        Shared by :meth:`submit` and front-ends (the CLI ``serve``
        command) so the limits live in one place; delegates to the
        module-level :func:`validate_query` the sharded router also uses.
        """
        return validate_query(
            workload, platform, interferers, self.n_workloads, self.n_platforms
        )

    @property
    def pending(self) -> int:
        return len(self._queue)

    def flush(self) -> np.ndarray:
        """Serve every queued query in one batched pass per ε group.

        Returns bounds (seconds) aligned with submission tickets. The
        whole flush runs under one captured generation, so mixed-ε
        drains cannot straddle a concurrent swap. The queue is cleared
        only on success: if serving fails (e.g. a ``refresh`` dropped an
        ε that was calibrated at submit time) the queue is restored
        intact, so no accepted ticket is lost.
        """
        state = self._state
        queue, self._queue = self._queue, []
        try:
            results = np.empty(len(queue))
            by_epsilon: dict[float, list[int]] = {}
            for ticket, query in enumerate(queue):
                by_epsilon.setdefault(query.epsilon, []).append(ticket)
            for epsilon, tickets in by_epsilon.items():
                w = np.array(
                    [queue[t].workload for t in tickets], dtype=np.intp
                )
                p = np.array(
                    [queue[t].platform for t in tickets], dtype=np.intp
                )
                ints = pad_interferers([queue[t].interferers for t in tickets])
                results[tickets] = self._predict_bound(
                    state, w, p, ints, epsilon
                )
        except Exception:
            self._queue = queue + self._queue
            raise
        self.stats.flushes += 1
        return results
