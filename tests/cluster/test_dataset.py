"""RuntimeDataset container semantics."""

import numpy as np
import pytest

from repro.cluster import MAX_INTERFERERS, RuntimeDataset
from repro.cluster.collection import synthetic_fleet_dataset


def _toy_dataset() -> RuntimeDataset:
    # 3 workloads x 2 platforms; 4 isolation + 2 interference rows.
    w = np.array([0, 1, 2, 0, 1, 2])
    p = np.array([0, 0, 1, 1, 1, 0])
    k = np.full((6, MAX_INTERFERERS), -1)
    k[4] = [0, -1, -1]          # 2-way
    k[5] = [0, 1, -1]           # 3-way
    runtime = np.array([1.0, 2.0, 4.0, 1.5, 3.0, 8.0])
    return RuntimeDataset(
        w_idx=w,
        p_idx=p,
        interferers=k,
        runtime=runtime,
        workload_features=np.zeros((3, 2)),
        platform_features=np.zeros((2, 2)),
    )


class TestValidation:
    def test_length_mismatch_raises(self):
        ds = _toy_dataset()
        with pytest.raises(ValueError):
            RuntimeDataset(
                w_idx=ds.w_idx[:-1],
                p_idx=ds.p_idx,
                interferers=ds.interferers,
                runtime=ds.runtime,
                workload_features=ds.workload_features,
                platform_features=ds.platform_features,
            )

    def test_bad_interferer_shape_raises(self):
        ds = _toy_dataset()
        with pytest.raises(ValueError):
            RuntimeDataset(
                w_idx=ds.w_idx,
                p_idx=ds.p_idx,
                interferers=ds.interferers[:, :1],
                runtime=ds.runtime,
                workload_features=ds.workload_features,
                platform_features=ds.platform_features,
            )

    def test_nonpositive_runtime_raises(self):
        ds = _toy_dataset()
        bad = ds.runtime.copy()
        bad[0] = 0.0
        with pytest.raises(ValueError):
            RuntimeDataset(
                w_idx=ds.w_idx,
                p_idx=ds.p_idx,
                interferers=ds.interferers,
                runtime=bad,
                workload_features=ds.workload_features,
                platform_features=ds.platform_features,
            )


class TestAccessors:
    def test_degree(self):
        ds = _toy_dataset()
        assert ds.degree.tolist() == [1, 1, 1, 1, 2, 3]

    def test_masks(self):
        ds = _toy_dataset()
        assert ds.isolation_mask().sum() == 4
        assert ds.interference_mask().sum() == 2
        assert ds.degree_mask(2).sum() == 1

    def test_degree_counts(self):
        ds = _toy_dataset()
        assert ds.degree_counts() == {1: 4, 2: 1, 3: 1, 4: 0}

    def test_log_runtime(self):
        ds = _toy_dataset()
        assert np.allclose(ds.log_runtime, np.log(ds.runtime))

    def test_subset(self):
        ds = _toy_dataset()
        sub = ds.subset(np.array([4, 5]))
        assert sub.n_observations == 2
        assert sub.degree.tolist() == [2, 3]
        # Features are shared, not copied.
        assert sub.workload_features is ds.workload_features

    def test_isolation_only(self):
        ds = _toy_dataset()
        assert ds.isolation_only().n_observations == 4

    def test_isolation_mean_log10(self):
        ds = _toy_dataset()
        mean = ds.isolation_mean_log10()
        assert mean.shape == (3, 2)
        assert mean[0, 0] == pytest.approx(np.log10(1.0))
        assert mean[0, 1] == pytest.approx(np.log10(1.5))
        assert np.isnan(mean[1, 1])  # never observed in isolation

    def test_summary(self):
        s = _toy_dataset().summary()
        assert s["n_isolation"] == 4 and s["n_interference"] == 2


class TestPersistence:
    def test_npz_round_trip(self, tmp_path):
        ds = _toy_dataset()
        path = tmp_path / "ds.npz"
        ds.save(path)
        loaded = RuntimeDataset.load(path)
        assert np.array_equal(loaded.w_idx, ds.w_idx)
        assert np.array_equal(loaded.interferers, ds.interferers)
        assert np.allclose(loaded.runtime, ds.runtime)
        assert np.array_equal(loaded.workload_features, ds.workload_features)

    def test_round_trip_preserves_feature_names(self, tmp_path):
        ds = _toy_dataset()
        ds.workload_feature_names = ["a", "b"]
        ds.platform_feature_names = ["x", "y"]
        path = tmp_path / "ds.npz"
        ds.save(path)
        # Names are unicode arrays: the archive loads without pickle.
        with np.load(path, allow_pickle=False) as archive:
            assert archive["workload_feature_names"].dtype.kind == "U"
        loaded = RuntimeDataset.load(path)
        assert loaded.workload_feature_names == ["a", "b"]
        assert loaded.platform_feature_names == ["x", "y"]
        assert all(type(n) is str for n in loaded.workload_feature_names)

    def test_synthetic_fleet_empty_names_round_trip(self, tmp_path):
        ds = synthetic_fleet_dataset(4, 3, n_observations=60, seed=0)
        assert ds.workload_feature_names == []
        assert ds.platform_feature_names == []
        path = tmp_path / "fleet.npz"
        ds.save(path)
        loaded = RuntimeDataset.load(path)
        assert loaded.workload_feature_names == []
        assert loaded.platform_feature_names == []
        for name in ("w_idx", "p_idx", "interferers", "runtime",
                     "workload_features", "platform_features"):
            original, restored = getattr(ds, name), getattr(loaded, name)
            assert restored.dtype == original.dtype
            assert restored.tobytes() == original.tobytes()


class TestSchemaVersion:
    def test_save_writes_current_version(self, tmp_path):
        from repro.cluster import DATASET_SCHEMA_VERSION

        path = tmp_path / "ds.npz"
        _toy_dataset().save(path)
        with np.load(path) as archive:
            assert int(archive["schema_version"]) == DATASET_SCHEMA_VERSION

    def test_round_trip_still_loads(self, tmp_path):
        path = tmp_path / "ds.npz"
        ds = _toy_dataset()
        ds.save(path)
        loaded = RuntimeDataset.load(path)
        assert np.array_equal(loaded.runtime, ds.runtime)

    def test_version_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "ds.npz"
        _toy_dataset().save(path)
        with np.load(path, allow_pickle=True) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["schema_version"] = np.array(999)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="schema version 999"):
            RuntimeDataset.load(path)

    def test_version_1_object_name_archive_fails_loudly(self, tmp_path):
        # Version 1 pickled the feature names as object arrays.
        path = tmp_path / "ds.npz"
        _toy_dataset().save(path)
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["schema_version"] = np.array(1)
        for name in ("workload_feature_names", "platform_feature_names"):
            payload[name] = np.array(["f"], dtype=object)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="schema version 1 does not match"):
            RuntimeDataset.load(path)

    def test_missing_version_fails_loudly(self, tmp_path):
        path = tmp_path / "ds.npz"
        _toy_dataset().save(path)
        with np.load(path, allow_pickle=True) as archive:
            payload = {
                name: archive[name]
                for name in archive.files
                if name != "schema_version"
            }
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="no schema_version"):
            RuntimeDataset.load(path)

