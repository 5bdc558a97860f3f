"""CLI workflows: collect → train → evaluate → predict."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Run the full CLI pipeline once on a tiny configuration."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "data.npz"
    model = root / "model.npz"
    assert main([
        "collect", str(dataset), "--seed", "0",
        "--workloads", "20", "--devices", "4", "--runtimes", "3",
        "--sets-per-degree", "8",
    ]) == 0
    assert main([
        "train", str(dataset), str(model),
        "--steps", "60", "--hidden", "8", "--embedding-dim", "4",
    ]) == 0
    return dataset, model


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_collect_defaults(self):
        args = build_parser().parse_args(["collect", "out.npz"])
        assert args.sets_per_degree == 250 and args.seed == 0

    def test_train_hidden_list(self):
        args = build_parser().parse_args(
            ["train", "d.npz", "m.npz", "--hidden", "64", "32"]
        )
        assert args.hidden == [64, 32]


class TestPipeline:
    def test_collect_creates_loadable_dataset(self, artifacts):
        from repro.cluster import RuntimeDataset

        dataset, _ = artifacts
        ds = RuntimeDataset.load(dataset)
        assert ds.n_observations > 0

    def test_evaluate_runs(self, artifacts, capsys):
        dataset, model = artifacts
        assert main(["evaluate", str(model), str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "MAPE" in out

    def test_predict_outputs_seconds(self, artifacts, capsys):
        _, model = artifacts
        assert main([
            "predict", str(model), "--workload", "0", "--platform", "1",
            "--interferers", "2", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "predicted runtime" in out

    def test_predict_range_validation(self, artifacts):
        _, model = artifacts
        assert main([
            "predict", str(model), "--workload", "9999", "--platform", "0",
        ]) == 2
        assert main([
            "predict", str(model), "--workload", "0", "--platform", "0",
            "--interferers", "1", "2", "3", "4",
        ]) == 2

    def test_quantile_train_and_conformal_evaluate(self, tmp_path, artifacts):
        dataset, _ = artifacts
        model = tmp_path / "q.npz"
        assert main([
            "train", str(dataset), str(model),
            "--steps", "60", "--hidden", "8", "--embedding-dim", "4",
            "--quantiles",
        ]) == 0
        assert main([
            "evaluate", str(model), str(dataset), "--epsilon", "0.2",
        ]) == 0


class TestServing:
    def test_serve_answers_query_file(self, tmp_path, artifacts, capsys):
        dataset, model = artifacts
        queries = tmp_path / "queries.txt"
        queries.write_text("0 1\n2 3 4 5\n# comment\n\n1 0 2\n")
        assert main([
            "serve", str(model), str(dataset),
            "--queries", str(queries), "--epsilon", "0.1", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("bound[eps=0.1]") == 3
        assert out.count("bound[eps=0.05]") == 3
        assert "served 3 queries" in out
        # Cache/swap observability counters ride along on every serve.
        assert "hit rate" in out
        assert "swaps: 0" in out
        assert "generation 0" in out

    def test_serve_rejects_out_of_range_query(self, tmp_path, artifacts,
                                              capsys):
        dataset, model = artifacts
        queries = tmp_path / "bad.txt"
        queries.write_text("9999 0\n")
        assert main([
            "serve", str(model), str(dataset), "--queries", str(queries),
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_serve_rejects_out_of_range_co_runner(self, tmp_path, artifacts,
                                                  capsys):
        dataset, model = artifacts
        queries = tmp_path / "co.txt"
        queries.write_text("0 1 99999\n")
        assert main([
            "serve", str(model), str(dataset), "--queries", str(queries),
        ]) == 2
        assert "interferer 99999 out of range" in capsys.readouterr().err

    def test_serve_rejects_negative_co_runner(self, tmp_path, artifacts,
                                              capsys):
        dataset, model = artifacts
        queries = tmp_path / "neg.txt"
        queries.write_text("0 1 -2\n")
        assert main([
            "serve", str(model), str(dataset), "--queries", str(queries),
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_serve_rejects_invalid_epsilon(self, artifacts, capsys):
        dataset, model = artifacts
        assert main([
            "serve", str(model), str(dataset), "--epsilon", "0",
        ]) == 2
        assert "epsilon must be in (0, 1)" in capsys.readouterr().err

    def test_serve_rejects_missing_query_file(self, artifacts, capsys):
        dataset, model = artifacts
        assert main([
            "serve", str(model), str(dataset), "--queries", "/nonexistent.txt",
        ]) == 2
        assert "cannot read queries" in capsys.readouterr().err

    def test_bench_serve_reports_throughput(self, artifacts, capsys):
        dataset, model = artifacts
        assert main([
            "bench-serve", str(model), str(dataset),
            "--n-queries", "500", "--cold-queries", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "snapshot batch" in out
        assert "cached (LRU)" in out
        assert "deviate" not in out


class TestScenarioCommands:
    def test_scenarios_list_names_registry(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper", "fleet-large", "cold-start-workloads", "smoke"):
            assert name in out

    def test_scenarios_list_verbose_shows_knobs(self, capsys):
        assert main(["scenarios", "list", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "hash=" in out
        assert "fleet=" in out


class TestPipelineCommand:
    def test_cold_then_warm_run_through_cache(self, tmp_path, capsys):
        store = tmp_path / "cache"
        argv = ["pipeline", "run", "--scenario", "smoke",
                "--store", str(store)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "6 stage(s) run, 0 cached" in out
        # Warm: every stage must be a cache hit.
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "0 stage(s) run, 6 cached" in out
        assert "coverage" in out

    def test_unbounded_margin_runs_cold_then_warm(self, tmp_path, capsys):
        """50 calibration rows at eps=0.01 give an infinite bound by
        design; the run must store a null margin, not abort on it."""
        argv = [
            "pipeline", "run", "--scenario", "cold-start-workloads",
            "--store", str(tmp_path / "cache"),
            "--workloads", "16", "--devices", "4", "--runtimes", "3",
            "--sets-per-degree", "8", "--steps", "40",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "n_calibration: 50" in out
        assert "eps=0.01: coverage 1.000, margin unbounded" in out
        assert "6 stage(s) run, 0 cached" in out
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "margin unbounded" in out
        assert "0 stage(s) run, 6 cached" in out

    def test_assert_warm_fails_on_cold_run(self, tmp_path, capsys):
        assert main([
            "pipeline", "run", "--scenario", "smoke",
            "--store", str(tmp_path / "cache"), "--assert-warm",
        ]) == 1
        assert "expected a fully-warm run" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "pipeline", "run", "--scenario", "not-a-scenario",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scale_overrides_apply(self, tmp_path, capsys):
        assert main([
            "pipeline", "run", "--scenario", "smoke",
            "--store", str(tmp_path / "cache"),
            "--workloads", "12", "--steps", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "6 stage(s) run" in out


#: drifting-fleet scaled to CLI-test size; every lifecycle test shares it.
LIFECYCLE_SCALE = [
    "--workloads", "16", "--devices", "4", "--runtimes", "3",
    "--sets-per-degree", "8", "--steps", "60",
]
LIFECYCLE_DRIFT = [
    "--events-per-phase", "300", "--chunk", "150", "--update-steps", "20",
]


class TestLifecycleCommand:
    def test_missing_trained_snapshot_is_a_clear_error(self, tmp_path,
                                                       capsys):
        """Satellite: no traceback, a message naming the fix."""
        assert main([
            "lifecycle", "run", "--scenario", "drifting-fleet",
            "--store", str(tmp_path / "empty"), *LIFECYCLE_SCALE,
        ]) == 2
        err = capsys.readouterr().err
        assert "no trained snapshot" in err
        assert "repro pipeline run --scenario drifting-fleet" in err

    def test_driftless_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "lifecycle", "run", "--scenario", "smoke",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "no drift stream" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "lifecycle", "run", "--scenario", "nope",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_replay_after_pipeline_reports_coverage(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main([
            "pipeline", "run", "--scenario", "drifting-fleet",
            "--store", store, *LIFECYCLE_SCALE,
        ]) == 0
        capsys.readouterr()
        argv = ["lifecycle", "run", "--scenario", "drifting-fleet",
                "--store", store, *LIFECYCLE_SCALE, *LIFECYCLE_DRIFT]
        # Cold lifecycle: the three lifecycle stages execute...
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run     ingest" in out
        assert "run     update" in out
        assert "run     recalibrate" in out
        assert "coverage over time" in out
        assert "atomic swap(s)" in out
        # ...and a warm replay reuses every checkpoint.
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "cached  ingest" in out
        assert "cached  update" in out
        assert "cached  recalibrate" in out

    def test_assert_warm_fails_on_cold_lifecycle(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main([
            "pipeline", "run", "--scenario", "drifting-fleet",
            "--store", store, *LIFECYCLE_SCALE,
        ]) == 0
        capsys.readouterr()
        assert main([
            "lifecycle", "run", "--scenario", "drifting-fleet",
            "--store", store, *LIFECYCLE_SCALE, *LIFECYCLE_DRIFT,
            "--assert-warm",
        ]) == 1
        assert "fully-warm lifecycle" in capsys.readouterr().err


#: schedule scenario scaled to CLI-test size; every schedule test shares it.
SCHEDULE_SCALE = [
    "--workloads", "14", "--devices", "4", "--runtimes", "3",
    "--sets-per-degree", "8", "--steps", "60",
]
SCHEDULE_SIM = [
    "--epochs", "3", "--jobs-per-epoch", "12", "--warmup-events", "80",
]


class TestScheduleCommand:
    def test_missing_trained_snapshot_is_a_clear_error(self, tmp_path,
                                                       capsys):
        assert main([
            "schedule", "run", "--scenario", "schedule",
            "--store", str(tmp_path / "empty"), *SCHEDULE_SCALE,
        ]) == 2
        err = capsys.readouterr().err
        assert "no trained snapshot" in err
        assert "repro pipeline run --scenario schedule" in err

    def test_scheduling_free_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "schedule", "run", "--scenario", "smoke",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "no scheduling simulation" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "schedule", "run", "--scenario", "nope",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_policy_override_rejected(self, tmp_path, capsys):
        assert main([
            "schedule", "run", "--scenario", "schedule",
            "--store", str(tmp_path / "cache"), "--policy", "mystery",
        ]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_simulation_after_pipeline_reports_violations(self, tmp_path,
                                                          capsys):
        store = str(tmp_path / "cache")
        assert main([
            "pipeline", "run", "--scenario", "schedule",
            "--store", store, *SCHEDULE_SCALE,
        ]) == 0
        capsys.readouterr()
        argv = ["schedule", "run", "--scenario", "schedule",
                "--store", store, *SCHEDULE_SCALE, *SCHEDULE_SIM]
        # Cold: the simulate stage executes and the table shows up...
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run     simulate" in out
        assert "budget-viol" in out
        assert "static-viol" in out
        assert "placement rate" in out
        assert "decision latency" in out
        # ...and a warm re-run serves the cached report.
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "cached  simulate" in out

    def test_assert_warm_fails_on_cold_simulation(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main([
            "pipeline", "run", "--scenario", "schedule",
            "--store", store, *SCHEDULE_SCALE,
        ]) == 0
        capsys.readouterr()
        assert main([
            "schedule", "run", "--scenario", "schedule",
            "--store", store, *SCHEDULE_SCALE, *SCHEDULE_SIM,
            "--assert-warm",
        ]) == 1
        assert "fully-warm schedule" in capsys.readouterr().err


class TestSweepCLI:
    def test_cold_then_warm_sweep(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        argv = ["sweep", "run", "--scenarios", "smoke",
                "--seeds", "0", "1", "--store", store]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cell(s), 9 unique task(s)" in out
        assert "1 shared-ancestor run(s) deduped" in out
        assert "9 task(s) run, 0 cached" in out
        assert "collect=1" in out  # exactly-once ledger
        assert "coverage@0.1" in out  # aggregate table rendered
        # Warm re-run executes nothing and satisfies --assert-warm.
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "0 task(s) run, 9 cached" in out

    def test_assert_warm_fails_cold(self, tmp_path, capsys):
        assert main([
            "sweep", "run", "--scenarios", "smoke",
            "--store", str(tmp_path / "cache"), "--assert-warm",
        ]) == 1
        assert "fully-warm sweep" in capsys.readouterr().err

    def test_grid_file_with_set_overrides(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"scenarios": ["smoke"], "stop_after": "collect"}')
        assert main([
            "sweep", "run", "--grid", str(grid),
            "--store", str(tmp_path / "cache"),
            "--set", "sets_per_degree=4",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 cell(s), 1 unique task(s)" in out
        assert "1 task(s) run" in out

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "sweep", "run", "--scenarios", "mystery",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_unreadable_grid_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "sweep", "run", "--grid", str(tmp_path / "nope.json"),
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "cannot read grid" in capsys.readouterr().err


class TestStoreCLI:
    def test_ls_and_gc(self, tmp_path, capsys):
        from repro.pipeline import ArtifactStore, stage_key

        store_root = str(tmp_path / "cache")
        assert main([
            "sweep", "run", "--scenarios", "smoke",
            "--stop-after", "collect", "--store", store_root,
        ]) == 0
        # Leave a partial dir behind, as a crashed run would.
        ArtifactStore(store_root).write_dir(
            "train", stage_key("train", "crashed", ())
        )
        capsys.readouterr()
        assert main(["store", "ls", "--store", store_root]) == 0
        out = capsys.readouterr().out
        assert "collect" in out and "committed" in out
        assert "PARTIAL" in out
        assert "1 committed artifact(s), 1 partial" in out
        assert main(["store", "gc", "--store", store_root]) == 0
        assert "1 partial artifact dir(s) pruned" in capsys.readouterr().out
        assert main(["store", "ls", "--store", store_root]) == 0
        assert "0 partial" in capsys.readouterr().out

    def test_ls_empty_store(self, tmp_path, capsys):
        assert main(["store", "ls", "--store", str(tmp_path / "none")]) == 0
        assert "empty" in capsys.readouterr().out
