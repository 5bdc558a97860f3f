"""RPR004 — pipeline stages are pure functions of (spec, inputs).

A stage's artifact is keyed on exactly the spec components it reads plus
its upstream keys; the cache is only honest if the stage body computes
the same bytes every time. Two impurity classes sneak in easily:

* **Wall-clock reads** (``time.time``, ``datetime.now``, …) — anything
  time-derived in a cached payload makes "warm hit" and "fresh compute"
  diverge. (Timing *around* stages is fine and lives in the CLI, outside
  this rule's scope.)
* **Filesystem writes outside the ArtifactStore commit protocol** —
  a stage that writes its own files bypasses the MANIFEST commit point,
  so a crashed run can leave half-written state that a later run treats
  as complete.

Persistence is sanctioned only inside the store itself
(``allow-classes``, default ``ArtifactStore``) and the per-stage
saver/serializer helpers (``allow-functions`` name patterns, default
``_save_*`` and ``_write_*``) that :func:`run_pipeline` invokes between
``write_dir`` and ``commit``.

The rule also covers :mod:`repro.sweep`: sweep workers produce the same
cached artifacts concurrently, so worker code may only touch the
filesystem through the store's lock/commit protocol — a stray write in
the runner would race its siblings with no manifest to arbitrate.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterator

from ..engine import LintRule, SourceModule, Violation, register
from .common import build_aliases, call_keyword, dotted_name

#: Dotted call targets that read the wall clock.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Method/function names that persist bytes to the filesystem.
_WRITE_ATTRS = frozenset(
    {
        "write_text",
        "write_bytes",
        "save",
        "savez",
        "savez_compressed",
        "save_archive",
        "savetxt",
        "dump",
        "mkdir",
        "makedirs",
        "rmtree",
        "unlink",
        "rename",
        "replace",
        "touch",
        "rmdir",
        "to_csv",
        "to_json",
    }
)


@register
class PipelinePurityRule(LintRule):
    code = "RPR004"
    name = "stage-purity"
    description = (
        "no wall-clock reads or filesystem writes in pipeline stage "
        "bodies; persistence goes through the ArtifactStore commit "
        "protocol"
    )
    default_globs = ("*pipeline/*.py", "*sweep/*.py")

    def __init__(self, options: dict | None = None) -> None:
        super().__init__(options)
        self.allow_functions: tuple[str, ...] = tuple(
            self.options.get("allow-functions", ("_save_*", "_write_*"))
        )
        self.allow_classes: tuple[str, ...] = tuple(
            self.options.get("allow-classes", ("ArtifactStore",))
        )

    # ------------------------------------------------------------------
    def check(self, module: SourceModule) -> Iterator[Violation]:
        aliases = build_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in _WALL_CLOCK or (
                name is not None
                and name.split(".", 1)[0] == "datetime"
                and name.split(".")[-1] in ("now", "utcnow", "today")
            ):
                yield self.violation(
                    module,
                    node,
                    f"wall-clock read ({name}) in pipeline code: stages "
                    f"must be deterministic in (spec, inputs) or the "
                    f"content-addressed cache stops meaning 'this exact "
                    f"computation already ran'",
                )
                continue
            if self._is_write_call(node, name) and not self._sanctioned(
                module, node
            ):
                target = name or getattr(node.func, "attr", "write")
                yield self.violation(
                    module,
                    node,
                    f"filesystem write ({target}) outside the "
                    f"ArtifactStore commit protocol: stage outputs must "
                    f"be persisted by the store's savers between "
                    f"write_dir() and commit(), so crashed runs read as "
                    f"misses instead of half-written artifacts",
                )

    # ------------------------------------------------------------------
    def _is_write_call(self, node: ast.Call, name: str | None) -> bool:
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            return self._open_writes(node)
        if isinstance(node.func, ast.Attribute):
            return node.func.attr in _WRITE_ATTRS
        if name is not None:
            return name.split(".")[-1] in _WRITE_ATTRS
        return False

    @staticmethod
    def _open_writes(node: ast.Call) -> bool:
        mode = call_keyword(node, "mode")
        if mode is None and len(node.args) >= 2:
            mode = node.args[1]
        if mode is None:
            return False  # default "r"
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(flag in mode.value for flag in "wax+")
        return True  # dynamic mode: assume the worst

    def _sanctioned(self, module: SourceModule, node: ast.Call) -> bool:
        func = module.enclosing_function(node)
        if func is not None and any(
            fnmatch.fnmatch(func.name, pattern)
            for pattern in self.allow_functions
        ):
            return True
        cls = module.enclosing_class(node)
        return cls is not None and cls.name in self.allow_classes
