"""Single-process open-loop load loop and the serving metrics built on it.

Arrivals follow a precomputed schedule and keep coming whether or not
the service keeps up. Every query's latency runs from its *scheduled*
arrival to the end of the micro-batch that answered it, so a stalled
batch is charged to every query that was due while it ran. Queries that
have waited longer than ``refuse_after`` are shed unanswered (refused);
a refused query counts as missing any latency limit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

#: Sleep only for gaps longer than this, and wake this early; shorter
#: gaps are spun, because ``time.sleep`` can overshoot by milliseconds on
#: a loaded host and the overshoot would be charged to the next query.
SPIN_BELOW_S = 0.003


@dataclass
class OpenLoopRun:
    """Per-query and per-batch record of one open-loop step."""

    arrivals: np.ndarray  #: scheduled arrival, seconds from step start
    dispatched: np.ndarray  #: when the query's batch started (NaN if refused)
    done: np.ndarray  #: when the query's batch returned (NaN if refused)
    refused: np.ndarray  #: bool, shed after waiting > refuse_after
    batch_of: np.ndarray  #: batch id per query (-1 if refused)
    #: (batch id, first query, end query, start, end) per micro-batch.
    batches: list[tuple[int, int, int, float, float]] = field(default_factory=list)
    #: (start, end) per swap.
    swaps: list[tuple[float, float]] = field(default_factory=list)
    #: Idle-loop lateness samples: how long after it was due the loop
    #: noticed a query while it had nothing else to do.
    gen_lag: list[float] = field(default_factory=list)
    #: Queries due but not yet dispatched when the last arrival was due.
    backlog_end: int = 0

    @property
    def latencies(self) -> np.ndarray:
        """Seconds from scheduled arrival to answer; ``inf`` if refused."""
        out = self.done - self.arrivals
        out[self.refused] = math.inf
        return out

    @property
    def busy_s(self) -> float:
        """Seconds spent inside service calls (batches plus swaps)."""
        return sum(b[4] - b[3] for b in self.batches) + sum(
            e - s for s, e in self.swaps
        )


def drive_open_loop(
    arrivals: np.ndarray,
    serve: Callable[[int, int, int], None],
    *,
    max_batch: int,
    refuse_after: float,
    swap_at: Sequence[float] = (),
    swap: Callable[[int], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopRun:
    """Play ``arrivals`` (sorted seconds) against ``serve`` in wall time.

    ``serve(lo, hi, batch_id)`` answers queries ``lo:hi`` in one call.
    ``swap(k)`` runs once at each instant of ``swap_at`` (before any
    batch dispatched at or after that instant).
    """
    n = len(arrivals)
    run = OpenLoopRun(
        arrivals=np.asarray(arrivals, dtype=float),
        dispatched=np.full(n, np.nan),
        done=np.full(n, np.nan),
        refused=np.zeros(n, dtype=bool),
        batch_of=np.full(n, -1, dtype=np.intp),
    )
    last_due = float(run.arrivals[-1]) if n else 0.0
    backlog_seen = False
    start = clock()
    i = k = batch = 0
    idle = False
    while i < n:
        now = clock() - start
        if not backlog_seen and now >= last_due:
            backlog_seen = True
            run.backlog_end = int(np.searchsorted(run.arrivals, now, "right")) - i
        if k < len(swap_at) and now >= swap_at[k]:
            swap(k)
            run.swaps.append((now, clock() - start))
            k += 1
            continue
        due = int(np.searchsorted(run.arrivals, now, "right"))
        if due <= i:
            wake = run.arrivals[i]
            if k < len(swap_at):
                wake = min(wake, swap_at[k])
            if wake - now > SPIN_BELOW_S:
                sleep(wake - now - SPIN_BELOW_S)
            idle = True
            continue
        if idle:
            run.gen_lag.append(now - float(run.arrivals[i]))
            idle = False
        stale = int(np.searchsorted(run.arrivals, now - refuse_after, "left"))
        if stale > i:
            run.refused[i:stale] = True
            i = stale
            continue
        j = min(due, i + max_batch)
        run.dispatched[i:j] = now
        serve(i, j, batch)
        end = clock() - start
        run.done[i:j] = end
        run.batch_of[i:j] = batch
        run.batches.append((batch, i, j, now, end))
        batch += 1
        i = j
    if not backlog_seen:
        run.backlog_end = 0
    return run


def tail(latencies: np.ndarray, q: float) -> float:
    """q-th percentile through the repository's sample-floor guard.

    Refused queries enter as ``inf``; ``NaN`` means too few samples for
    the percentile to be supported.
    """
    from repro.eval.reporting import percentile

    data = np.asarray(latencies, dtype=float)
    if data.size and np.isinf(data).any():
        # np.percentile interpolates inf into NaN; rank against a finite
        # sentinel above every real latency instead.
        finite = data[np.isfinite(data)]
        sentinel = (finite.max() if finite.size else 0.0) + 1e9
        value = percentile(np.where(np.isinf(data), sentinel, data), q)
        return math.inf if value >= sentinel else value
    return percentile(data, q)


@dataclass(frozen=True)
class LadderStep:
    """One offered rate of the ladder and what it achieved."""

    rate: float  #: offered base rate, queries/s
    p99_s: float  #: NaN when under-sampled
    refused: int
    backlog_end: int
    max_batch: int


def step_passes(step: LadderStep, limit_s: float) -> bool:
    """p99 within the limit, nothing refused, and no growing backlog.

    Growing backlog: more queries still queued when the last arrival was
    due than one micro-batch can clear. An under-sampled p99 (NaN) does
    not pass.
    """
    return (
        step.refused == 0
        and step.backlog_end <= step.max_batch
        and not math.isnan(step.p99_s)
        and step.p99_s <= limit_s
    )


def max_sustained_rate(steps: Sequence[LadderStep], limit_s: float) -> float:
    """Highest ladder rate that passes, with every lower rate passing too.

    Past the first failing rate the ladder is saturated; a later rate
    that happens to pass (a lucky burst pattern) does not count. Returns
    0.0 when even the lightest rate fails.
    """
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if not step_passes(step, limit_s):
            break
        best = step.rate
    return best
