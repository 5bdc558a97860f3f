"""Staged pipeline: cold/warm runs, cache keying, stage wiring."""

import zipfile

import numpy as np
import pytest

from repro.pipeline import (
    PIPELINE_STAGES,
    ArtifactStore,
    run_pipeline,
)
from repro.scenarios import get_scenario

#: The batch prefix a default (stop_after="snapshot") run covers; the
#: continual-learning suffix is exercised in test_lifecycle_stages.py.
ALL_STAGES = tuple(stage.name for stage in PIPELINE_STAGES)[:6]


@pytest.fixture(scope="module")
def smoke_spec():
    return get_scenario("smoke")


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact-store")


@pytest.fixture(scope="module")
def cold(smoke_spec, store_root):
    return run_pipeline(smoke_spec, store=store_root)


class TestColdRun:
    def test_executes_every_stage(self, cold):
        assert cold.executed == ALL_STAGES
        assert cold.cached == ()

    def test_result_exposes_every_artifact(self, cold):
        assert cold.dataset.n_observations > 0
        assert cold.split.n_train > 0
        assert cold.baseline.w_bar.shape == (cold.dataset.n_workloads,)
        assert cold.training.steps_run == cold.spec.trainer.steps
        assert cold.model is cold.training.model
        assert cold.predictor.choices
        assert cold.snapshot.n_workloads == cold.dataset.n_workloads
        assert np.isfinite(cold.metrics["best_val_loss"])

    def test_trainer_property_is_bound_to_model(self, cold):
        trainer = cold.trainer
        assert trainer.model is cold.model
        loss = trainer.evaluate_loss(cold.split.calibration)
        assert np.isfinite(loss)

    def test_service_serves_calibrated_bounds(self, cold):
        service = cold.service()
        eps = cold.spec.conformal.epsilons[0]
        w = np.array([0, 1])
        p = np.array([0, 1])
        bounds = service.predict_bound(w, p, None, eps)
        expected = cold.predictor.predict_bound(w, p, None, eps)
        np.testing.assert_allclose(bounds, expected, rtol=0, atol=1e-10)


class TestWarmRun:
    def test_warm_run_executes_zero_stages(self, cold, smoke_spec, store_root):
        warm = run_pipeline(smoke_spec, store=store_root)
        assert warm.executed == ()
        assert warm.cached == ALL_STAGES
        assert warm.stage_keys == cold.stage_keys

    def test_warm_artifacts_match_cold_bitwise(self, cold, smoke_spec,
                                               store_root):
        warm = run_pipeline(smoke_spec, store=store_root)
        assert np.array_equal(warm.dataset.runtime, cold.dataset.runtime)
        assert np.array_equal(warm.split.train_rows, cold.split.train_rows)
        assert warm.training.train_loss_history == cold.training.train_loss_history
        assert warm.training.best_val_loss == cold.training.best_val_loss
        assert warm.predictor.choices == cold.predictor.choices
        assert warm.metrics == cold.metrics
        assert np.array_equal(warm.snapshot.W, cold.snapshot.W)

    def test_warm_service_matches_cold(self, cold, smoke_spec, store_root):
        warm = run_pipeline(smoke_spec, store=store_root)
        eps = smoke_spec.conformal.epsilons[0]
        test = cold.split.test
        a = cold.service().predict_bound_sweep(
            test.w_idx, test.p_idx, test.interferers, (eps,)
        )
        b = warm.service().predict_bound_sweep(
            test.w_idx, test.p_idx, test.interferers, (eps,)
        )
        assert np.array_equal(a, b)

    def test_force_recomputes_everything(self, cold, smoke_spec, store_root):
        forced = run_pipeline(smoke_spec, store=store_root, force=True)
        assert forced.executed == ALL_STAGES
        assert forced.training.best_val_loss == cold.training.best_val_loss


class TestCacheKeying:
    def test_trainer_edit_reuses_collect_and_scale(self, cold, smoke_spec,
                                                   store_root):
        edited = smoke_spec.scaled(steps=smoke_spec.trainer.steps + 10)
        result = run_pipeline(edited, store=store_root)
        assert result.cached == ("collect", "scale")
        assert result.executed == ("train", "calibrate", "evaluate", "snapshot")
        assert result.stage_keys["collect"] == cold.stage_keys["collect"]
        assert result.stage_keys["train"] != cold.stage_keys["train"]

    def test_epsilon_edit_reuses_training_and_snapshot(self, cold, smoke_spec,
                                                       store_root):
        edited = smoke_spec.scaled(epsilons=(0.2,))
        result = run_pipeline(edited, store=store_root)
        assert "train" in result.cached
        # The snapshot depends on the trained model only — a
        # conformal-only edit must not invalidate it.
        assert "snapshot" in result.cached
        assert "calibrate" in result.executed

    def test_margin_edit_reuses_training_and_persists_params(
        self, cold, smoke_spec, store_root
    ):
        """A margin-mode edit re-runs only the conformal suffix, and the
        margin params survive the predictor's json round trip: the warm
        read rebuilds the same MarginParams, not the default."""
        edited = smoke_spec.scaled(margin="weighted", margin_tau=123.0)
        result = run_pipeline(edited, store=store_root)
        assert "train" in result.cached and "snapshot" in result.cached
        assert "calibrate" in result.executed
        assert result.predictor.margin.mode == "weighted"
        warm = run_pipeline(edited, store=store_root)
        assert "calibrate" in warm.cached
        assert warm.predictor.margin.mode == "weighted"
        assert warm.predictor.margin.tau == 123.0
        assert warm.predictor.choices == result.predictor.choices

    def test_collect_seed_edit_invalidates_everything(self, cold, smoke_spec,
                                                      store_root):
        result = run_pipeline(
            smoke_spec.with_seeds(collect=123), store=store_root
        )
        assert result.executed == ALL_STAGES

    def test_stale_payload_schema_reads_as_miss(self, smoke_spec, tmp_path):
        """A schema bump under an unchanged key recomputes, never aborts."""
        store = ArtifactStore(tmp_path)
        cold = run_pipeline(smoke_spec, store=store)
        # Simulate an archive written under an older payload schema.
        dataset_npz = (
            store.read_dir("collect", cold.stage_keys["collect"])
            / "dataset.npz"
        )
        with np.load(dataset_npz, allow_pickle=True) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["schema_version"] = np.array(999)
        np.savez_compressed(dataset_npz, **payload)

        result = run_pipeline(smoke_spec, store=store)
        assert "collect" in result.executed
        assert np.array_equal(result.dataset.runtime, cold.dataset.runtime)
        # The rewritten artifact is healthy again: next run is fully warm.
        warm = run_pipeline(smoke_spec, store=store)
        assert warm.executed == ()

    def test_store_holds_both_variants(self, store_root):
        store = ArtifactStore(store_root)
        entries = store.stage_entries()
        assert entries["collect"] >= 2  # smoke + reseeded smoke
        assert entries["train"] >= 2


class TestPayloadEncoding:
    """Uncompressed ``.npz`` payloads: CRC-guarded, legacy stores warm."""

    @pytest.mark.parametrize("corrupt", ["bit_flip", "truncate"])
    def test_corrupt_payload_reads_as_miss(self, smoke_spec, tmp_path,
                                           corrupt):
        store = ArtifactStore(tmp_path)
        cold = run_pipeline(smoke_spec, store=store)
        dataset_npz = (
            store.read_dir("collect", cold.stage_keys["collect"])
            / "dataset.npz"
        )
        metrics_json = (
            store.read_dir("evaluate", cold.stage_keys["evaluate"])
            / "metrics.json"
        )
        first_metrics = metrics_json.read_bytes()
        raw = bytearray(dataset_npz.read_bytes())
        if corrupt == "bit_flip":
            # Stored uncompressed: the runtime column sits verbatim in
            # the file, so this flips a bit of array data, not a header.
            needle = cold.dataset.runtime.tobytes()
            raw[raw.find(needle) + len(needle) // 2] ^= 0x01
            dataset_npz.write_bytes(bytes(raw))
            with np.load(dataset_npz) as archive:
                with pytest.raises(zipfile.BadZipFile, match="Bad CRC-32"):
                    archive["runtime"]
        else:
            dataset_npz.write_bytes(bytes(raw[: len(raw) // 2]))
            with pytest.raises(zipfile.BadZipFile, match="not a zip file"):
                np.load(dataset_npz)

        result = run_pipeline(smoke_spec, store=store)
        assert "collect" in result.executed
        assert result.dataset.runtime.tobytes() == cold.dataset.runtime.tobytes()
        assert result.metrics == cold.metrics
        assert metrics_json.read_bytes() == first_metrics
        # The recomputed artifact is healthy again: next run is fully warm.
        assert run_pipeline(smoke_spec, store=store).executed == ()

    def test_compressed_legacy_store_stays_warm(self, smoke_spec, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = run_pipeline(smoke_spec, store=store)
        payloads = sorted(tmp_path.rglob("*.npz"))
        assert len(payloads) == 4  # dataset, split, model, snapshot
        for path in payloads:
            with zipfile.ZipFile(path) as zf:
                assert {i.compress_type for i in zf.infolist()} == {
                    zipfile.ZIP_STORED
                }
            with np.load(path, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
            np.savez_compressed(path, **arrays)
            with zipfile.ZipFile(path) as zf:
                assert {i.compress_type for i in zf.infolist()} == {
                    zipfile.ZIP_DEFLATED
                }

        warm = run_pipeline(smoke_spec, store=store)
        assert warm.executed == ()
        assert warm.metrics == cold.metrics
        cold_params = cold.model.state_dict()
        warm_params = warm.model.state_dict()
        assert warm_params.keys() == cold_params.keys()
        for name, value in cold_params.items():
            assert warm_params[name].tobytes() == value.tobytes(), name


class TestStopAfter:
    def test_collect_only(self, smoke_spec):
        result = run_pipeline(smoke_spec, stop_after="collect")
        assert result.executed == ("collect",)
        assert result.dataset is not None
        assert result.training is None

    def test_unknown_stage_rejected(self, smoke_spec):
        with pytest.raises(ValueError, match="unknown stage"):
            run_pipeline(smoke_spec, stop_after="deploy")


class TestScenarioVariants:
    def test_registry_name_accepted(self):
        result = run_pipeline("smoke", stop_after="collect")
        assert result.spec.name == "smoke"

    def test_cold_start_scenario_end_to_end(self, tmp_path):
        spec = (
            get_scenario("cold-start-workloads")
            .scaled(n_workloads=24, n_devices=4, n_runtimes=3,
                    sets_per_degree=6, steps=30, eval_every=15,
                    hidden=(8,), embedding_dim=4, epsilons=(0.1,))
        )
        result = run_pipeline(spec, store=tmp_path)
        seen = set(np.unique(result.split.train.w_idx))
        seen |= set(np.unique(result.split.calibration.w_idx))
        unseen = set(np.unique(result.split.test.w_idx)) - seen
        assert unseen, "cold-start split must hold out whole workloads"
        assert np.isfinite(result.metrics["mape_isolation"])

    def test_synthetic_fleet_scenario(self, tmp_path):
        spec = get_scenario("fleet-large").scaled(
            n_workloads=256, n_platforms=64, n_observations=2000,
            steps=10, eval_every=5, hidden=(8,), embedding_dim=4,
            epsilons=(0.1,),
        )
        result = run_pipeline(spec, store=tmp_path)
        assert result.dataset.n_workloads == 256
        assert result.dataset.n_platforms == 64
        warm = run_pipeline(spec, store=tmp_path)
        assert warm.executed == ()


class TestTowerPasses:
    """The towers run once per parameter state: a cold run pays only the
    trainer's validation passes, and calibrate/evaluate/snapshot read the
    snapshot memo that the best validation pass left behind."""

    def test_cold_run_pays_only_validation_passes(
        self, smoke_spec, tmp_path, monkeypatch
    ):
        from repro.core import PitotModel

        passes = []
        real = PitotModel.compute_embeddings

        def counting(self, fused=False):
            if not fused:
                passes.append(self)
            return real(self, fused)

        monkeypatch.setattr(PitotModel, "compute_embeddings", counting)
        cold = run_pipeline(smoke_spec, store=tmp_path)
        assert cold.executed == ALL_STAGES
        assert len(passes) == len(cold.training.val_loss_history) == 2
        passes.clear()
        warm = run_pipeline(smoke_spec, store=tmp_path)
        assert warm.executed == ()
        assert passes == []

    def test_evaluate_matches_one_forward_per_epsilon(self, cold):
        from reference.inference import evaluate_predictions

        from repro.pipeline import calibrate_stage, evaluate_stage

        spec = cold.spec.scaled(epsilons=(0.1, 0.05, 0.01))
        predictor = calibrate_stage(spec, cold.model, cold.split)
        metrics = evaluate_stage(spec, cold.training, predictor, cold.split)
        expected = evaluate_predictions(
            cold.model, predictor, cold.split.test, spec.conformal.epsilons
        )
        assert {key: metrics[key] for key in expected} == expected
