"""Aggregation: per-cell metrics fold into replicate-aware groups."""

import pytest

from repro.eval.reporting import format_sweep_table
from repro.scenarios import SweepGrid
from repro.sweep import aggregate_sweep, build_plan, cell_metrics, execute_plan


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    root = tmp_path_factory.mktemp("agg-store")
    plan = build_plan(
        SweepGrid(scenarios=("smoke",), seeds=(0, 1),
                  strategies=(None, "split"))
    )
    execute_plan(plan, root, workers=1)
    return plan, root


class TestCellMetrics:
    def test_flat_metric_names(self, swept):
        plan, root = swept
        metrics = cell_metrics(plan.cells[0], root)
        assert "mape_interference" in metrics
        assert "coverage@0.1" in metrics and "margin@0.1" in metrics

    def test_unbounded_margin_contributes_no_key(self, tmp_path):
        """A null (unbounded) margin is skipped, like a null MAPE."""
        plan = build_plan(SweepGrid(
            scenarios=("cold-start-workloads",),
            overrides=(
                ("n_workloads", 16), ("n_devices", 4), ("n_runtimes", 3),
                ("sets_per_degree", 8), ("steps", 40),
            ),
        ))
        execute_plan(plan, tmp_path, workers=1)
        metrics = cell_metrics(plan.cells[0], tmp_path)
        assert "coverage@0.01" in metrics and "margin@0.01" not in metrics
        assert "margin@0.1" in metrics
        (group,) = aggregate_sweep(list(plan.cells), tmp_path)
        assert "margin@0.01" not in group.metrics

    def test_missing_artifact_raises(self, swept, tmp_path):
        plan, _ = swept
        with pytest.raises(KeyError):
            cell_metrics(plan.cells[0], tmp_path)  # empty store


class TestLifecycleMetrics:
    def test_final_phase_summary(self):
        from repro.sweep.aggregate import _lifecycle_metrics

        payload = {"ticks": [
            {"phase": 0, "events": 100, "coverage_adaptive": 0.9,
             "coverage_static": 0.9, "reset": False},
            {"phase": 1, "events": 100, "coverage_adaptive": 0.8,
             "coverage_static": 0.4, "reset": True},
            {"phase": 1, "events": 300, "coverage_adaptive": 0.9,
             "coverage_static": 0.2, "reset": False},
        ]}
        flat = _lifecycle_metrics(payload, phases=(1.0, 1.6))
        # Event-weighted mean over the final (most drifted) phase only.
        assert flat["drift_coverage"] == pytest.approx(
            (0.8 * 100 + 0.9 * 300) / 400
        )
        assert flat["drift_coverage_static"] == pytest.approx(
            (0.4 * 100 + 0.2 * 300) / 400
        )
        assert flat["drift_resets"] == 1.0
        # Each drifted phase also reports under its multiplier label.
        assert flat["drift_coverage@1.6x"] == flat["drift_coverage"]
        assert "drift_coverage@1x" not in flat

    def test_empty_ticks_yield_no_metrics(self):
        from repro.sweep.aggregate import _lifecycle_metrics

        assert _lifecycle_metrics({"ticks": []}) == {}

    def test_recalibrate_sweep_cell_exposes_drift_metrics(self, tmp_path):
        """A stop_after='recalibrate' drift sweep has no evaluate
        artifact; cell_metrics must read the update stage's lifecycle
        ticks instead of raising."""
        plan = build_plan(SweepGrid(
            scenarios=("drifting-fleet",),
            margins=("naive", "weighted"),
            stop_after="recalibrate",
            overrides=(
                ("n_workloads", 16), ("n_devices", 4), ("n_runtimes", 3),
                ("sets_per_degree", 8), ("steps", 60),
                ("events_per_phase", 200), ("chunk", 100),
                ("update_steps", 10),
            ),
        ))
        execute_plan(plan, tmp_path, workers=1)
        groups = aggregate_sweep(list(plan.cells), tmp_path)
        assert [g.label for g in groups] == [
            "drifting-fleet+naive", "drifting-fleet+weighted"
        ]
        for group in groups:
            for name in ("drift_coverage", "drift_coverage_static",
                         "drift_resets"):
                assert name in group.metrics
        naive, weighted = groups
        # The soft reset never fires a hard clear under weighted.
        assert weighted.metrics["drift_resets"][0] == 0.0


class TestAggregate:
    def test_one_group_per_condition(self, swept):
        plan, root = swept
        groups = aggregate_sweep(list(plan.cells), root)
        assert [g.label for g in groups] == ["smoke", "smoke+split"]
        assert all(g.n == 2 for g in groups)

    def test_mean_and_spread_across_replicates(self, swept):
        plan, root = swept
        default_cells = [c for c in plan.cells if c.strategy is None]
        values = [
            cell_metrics(c, root)["coverage@0.1"] for c in default_cells
        ]
        (group, _) = aggregate_sweep(list(plan.cells), root)
        mean, spread = group.metrics["coverage@0.1"]
        assert mean == pytest.approx(sum(values) / len(values))
        assert spread is not None and spread >= 0.0

    def test_single_replicate_has_no_error_bar(self, swept):
        plan, root = swept
        one_seed = [c for c in plan.cells if c.seed == 0]
        groups = aggregate_sweep(one_seed, root)
        for group in groups:
            assert group.n == 1
            assert all(se is None for _, se in group.metrics.values())


class TestTable:
    def test_table_renders_groups_and_metrics(self, swept):
        plan, root = swept
        groups = aggregate_sweep(list(plan.cells), root)
        table = format_sweep_table(groups, title="sweep")
        assert "smoke+split" in table
        assert "coverage@0.1" in table
        assert "±" in table

    def test_missing_cells_render_dash(self):
        class Group:
            def __init__(self, label, metrics):
                self.label = label
                self.n = 1
                self.metrics = metrics

        table = format_sweep_table(
            [Group("a", {"m1": (0.5, None)}), Group("b", {"m2": (0.25, None)})]
        )
        assert "-" in table.splitlines()[-1]
