"""In-memory spans recorded from the benchmark's own wrappers.

The benchmark never edits the program: it times a layer by replacing the
layer's public function *where its caller looks the name up* (a class
attribute, a module global, or a dispatch-table entry) with a wrapper
that opens a span around the original call. :class:`Tracer` keeps spans
in memory; :meth:`Tracer.dump` writes them out once, at exit.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (:func:`self_times`). Summing self time by the
span-name prefix before the first dot gives the per-layer split.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator

_MISSING = object()


@dataclass
class Span:
    """One timed call: ``[start, end]`` seconds on the tracer's clock."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    batch: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span and counter recorder plus the attribute patches that feed it.

    Spans nest through a stack, so a wrapped call made inside another
    wrapped call records the outer span as its parent. A child inherits
    its parent's ``batch`` id unless it is given one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, batch: int | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if batch is None and parent is not None:
            batch = parent.batch
        record = Span(
            id=len(self.spans),
            name=name,
            start=self.clock(),
            end=float("nan"),
            parent=None if parent is None else parent.id,
            batch=batch,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[["Tracer", tuple, object], None] | None = None,
    ) -> Callable:
        """``fn`` inside a span named ``name``; counts ``<name>.calls``.

        ``on_result(tracer, args, result)`` may add counters after the
        call returns.
        """

        def wrapper(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Callable[["Tracer", tuple, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (class, module or dict) with a wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, on_result)
            self._patches.append((owner, attr, original))
            return
        own = vars(owner).get(attr, _MISSING)
        fn = getattr(owner, attr)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"cannot patch {attr!r}: static/class method")
        setattr(owner, attr, self.wrap(name, fn, on_result))
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self, path, meta: dict | None = None) -> None:
        """Write one JSON line per span (after a ``meta`` header line)."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta or {}, "counters": dict(self.counters)}))
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(asdict(s)))
                fh.write("\n")


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def descendants(spans: list[Span], root: int) -> list[Span]:
    """Every span below ``root`` (ids are assigned in start order)."""
    inside = {root}
    out = []
    for s in spans:
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def layer_self_times(spans: list[Span], root: int) -> dict[str, float]:
    """Self time of ``root`` and its descendants, summed per layer (the
    span-name prefix before the first dot)."""
    selected = [spans[root]] + descendants(spans, root)
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in selected:
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s.id]
    return out


def attributed_share(spans: list[Span], root: int) -> float:
    """Share of ``root``'s duration spent inside named child spans."""
    duration = spans[root].duration
    if duration <= 0:
        return 0.0
    return 1.0 - self_times(spans)[root] / duration


def total_time(spans: list[Span], name: str) -> float:
    """Summed duration of spans called ``name`` (outermost ones only).

    A span nested inside another span of the same name (recursion) is
    not counted twice.
    """
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        nested = False
        while parent is not None:
            if by_id[parent].name == name:
                nested = True
                break
            parent = by_id[parent].parent
        if not nested:
            total += s.duration
    return total
