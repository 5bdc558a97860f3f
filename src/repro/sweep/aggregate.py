"""Sweep aggregation: per-cell metrics → replicate-aware tables.

Cells differing only on the seed axis are replicates of one condition
(scenario × conformal mode × margin × policy). The aggregator loads each
cell's committed metrics straight from the store — no pipeline objects
are rebuilt — and folds replicates into mean ± 2·stderr per metric, the
same error-bar definition every experiment harness uses
(:func:`repro.eval.two_se`).

Two artifact sources feed the flat metric dict:

* the ``evaluate`` stage's batch test metrics (MAPE, coverage@ε,
  margin@ε) — the default for ``stop_after="evaluate"`` sweeps;
* the ``update`` stage's lifecycle ticks, summarized as drift-phase
  coverage (``drift_coverage`` / ``drift_coverage_static`` over the
  final — most drifted — phase, plus the reset count) — what a
  ``stop_after="recalibrate"`` drift sweep compares across margin modes.

A cell contributes whichever of the two is committed; a cell with
neither raises (aggregate after the sweep ran, not instead of it).
"""

from __future__ import annotations

import json
from pathlib import Path

from dataclasses import dataclass

from ..eval.significance import two_se
from ..pipeline.artifacts import ArtifactStore
from ..pipeline.stages import pipeline_stage_keys
from ..scenarios.grid import SweepCell

__all__ = ["SweepGroup", "aggregate_sweep", "cell_metrics"]


def _lifecycle_metrics(
    payload: dict, phases: tuple[float, ...] = ()
) -> dict[str, float]:
    """Coverage summary of an ``update`` artifact's lifecycle ticks.

    ``drift_coverage`` / ``drift_coverage_static`` summarize the final
    (most drifted) phase; when the spec's phase multipliers are known,
    every drifted phase additionally gets a ``drift_coverage@<mult>x``
    key, so one sweep over a multi-phase drift trace compares margin
    modes at *every* drift magnitude.
    """
    ticks = payload.get("ticks") or []
    if not ticks:
        return {}

    def _phase_mean(rows: list[dict], key: str) -> float:
        events = float(sum(t["events"] for t in rows))
        return sum(t[key] * t["events"] for t in rows) / events

    last_phase = max(int(t["phase"]) for t in ticks)
    final = [t for t in ticks if int(t["phase"]) == last_phase]
    flat = {
        "drift_coverage": _phase_mean(final, "coverage_adaptive"),
        "drift_coverage_static": _phase_mean(final, "coverage_static"),
        "drift_resets": float(sum(1 for t in ticks if t["reset"])),
    }
    for phase, multiplier in enumerate(phases):
        if phase == 0:
            continue  # the pre-drift regime is not a drift magnitude
        rows = [t for t in ticks if int(t["phase"]) == phase]
        if rows:
            flat[f"drift_coverage@{multiplier:g}x"] = _phase_mean(
                rows, "coverage_adaptive"
            )
    return flat


def cell_metrics(
    cell: SweepCell, store: ArtifactStore | str | Path
) -> dict[str, float]:
    """Flat numeric metrics of one cell's committed artifacts.

    Keys from ``evaluate`` (when committed): ``mape_isolation`` /
    ``mape_interference`` plus ``coverage@ε`` / ``margin@ε`` per
    calibrated ε (a ``null`` MAPE or margin, e.g. an unbounded margin,
    contributes no key). Keys from ``update`` (when committed):
    ``drift_coverage`` / ``drift_coverage_static`` (event-weighted mean
    over the final drift phase) and ``drift_resets``. Raises ``KeyError``
    when neither stage has been committed (the sweep did not run, or
    stopped earlier).
    """
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    keys = pipeline_stage_keys(cell.spec)
    flat: dict[str, float] = {}
    found = False
    if store.has("evaluate", keys["evaluate"]):
        payload = json.loads(
            (store.read_dir("evaluate", keys["evaluate"]) / "metrics.json")
            .read_text()
        )
        for name in ("mape_isolation", "mape_interference"):
            if payload.get(name) is not None:
                flat[name] = float(payload[name])
        for eps, entry in payload.get("epsilons", {}).items():
            label = f"{float(eps):g}"
            flat[f"coverage@{label}"] = float(entry["coverage"])
            if entry["margin"] is not None:
                flat[f"margin@{label}"] = float(entry["margin"])
        found = True
    if "update" in keys and store.has("update", keys["update"]):
        payload = json.loads(
            (store.read_dir("update", keys["update"]) / "lifecycle.json")
            .read_text()
        )
        flat.update(_lifecycle_metrics(payload, cell.spec.drift.phases))
        found = True
    if not found:
        raise KeyError(
            f"cell {cell.cell_id!r} has no committed evaluate or update "
            "artifact; run the sweep first"
        )
    return flat


@dataclass(frozen=True)
class SweepGroup:
    """One aggregated condition: all seeds of (scenario, mode, margin, policy)."""

    scenario: str
    strategy: str | None
    margin: str | None
    policy: str | None
    #: Replicate count (cells folded into this group).
    n: int
    #: ``metric -> (mean, 2·stderr | None)`` across replicates.
    metrics: dict[str, tuple[float, float | None]]

    @property
    def label(self) -> str:
        parts = [self.scenario]
        if self.strategy is not None:
            parts.append(self.strategy)
        if self.margin is not None:
            parts.append(self.margin)
        if self.policy is not None:
            parts.append(self.policy)
        return "+".join(parts)


def aggregate_sweep(
    cells: tuple[SweepCell, ...] | list[SweepCell],
    store: ArtifactStore | str | Path,
) -> list[SweepGroup]:
    """Fold the cells' committed metrics into per-condition groups.

    Group order follows first appearance in ``cells`` (i.e. grid
    expansion order); metric order within a group follows the first
    replicate's metric order. Cells with no committed metrics raise —
    aggregate after the sweep ran, not instead of it.
    """
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    # Condition key: (scenario, strategy, margin, policy).
    order: list[tuple] = []
    by_condition: dict[tuple, list[dict[str, float]]] = {}
    for cell in cells:
        condition: tuple = (
            cell.scenario, cell.strategy, cell.margin, cell.policy
        )
        if condition not in by_condition:
            order.append(condition)
            by_condition[condition] = []
        by_condition[condition].append(cell_metrics(cell, store))
    groups: list[SweepGroup] = []
    for condition in order:
        replicates = by_condition[condition]
        metric_names: list[str] = []
        for metrics in replicates:
            for name in metrics:
                if name not in metric_names:
                    metric_names.append(name)
        folded: dict[str, tuple[float, float | None]] = {}
        for name in metric_names:
            values = [m[name] for m in replicates if name in m]
            mean = sum(values) / len(values)
            folded[name] = (mean, two_se(values))
        scenario, strategy, margin, policy = condition
        groups.append(
            SweepGroup(
                scenario=scenario,
                strategy=strategy,
                margin=margin,
                policy=policy,
                n=len(replicates),
                metrics=folded,
            )
        )
    return groups
