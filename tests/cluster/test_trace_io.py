"""CSV trace interchange."""

import numpy as np
import pytest

from repro.cluster import (
    MAX_INTERFERERS,
    RuntimeDataset,
    export_observations_csv,
    import_trace_csv,
)


def _write_features(path, n, dim=2):
    lines = ["id," + ",".join(f"f{i}" for i in range(dim))]
    for idx in range(n):
        lines.append(f"{idx}," + ",".join(str(idx + 0.5 * i) for i in range(dim)))
    path.write_text("\n".join(lines) + "\n")


def _toy_dataset():
    k = np.full((3, MAX_INTERFERERS), -1)
    k[1] = [2, -1, -1]
    return RuntimeDataset(
        w_idx=np.array([0, 1, 2]),
        p_idx=np.array([0, 1, 0]),
        interferers=k,
        runtime=np.array([0.5, 1.5, 2.5]),
        workload_features=np.arange(6.0).reshape(3, 2),
        platform_features=np.arange(4.0).reshape(2, 2),
    )


class TestRoundTrip:
    def test_export_import(self, tmp_path):
        ds = _toy_dataset()
        obs = tmp_path / "obs.csv"
        wf, pf = tmp_path / "w.csv", tmp_path / "p.csv"
        export_observations_csv(ds, obs)
        _write_features(wf, 3)
        _write_features(pf, 2)
        loaded = import_trace_csv(obs, wf, pf)
        assert np.array_equal(loaded.w_idx, ds.w_idx)
        assert np.array_equal(loaded.interferers, ds.interferers)
        assert np.allclose(loaded.runtime, ds.runtime)

    def test_runtime_precision_preserved(self, tmp_path):
        ds = _toy_dataset()
        ds.runtime[0] = 1.2345678901234567e-4
        obs = tmp_path / "obs.csv"
        export_observations_csv(ds, obs)
        _write_features(tmp_path / "w.csv", 3)
        _write_features(tmp_path / "p.csv", 2)
        loaded = import_trace_csv(obs, tmp_path / "w.csv", tmp_path / "p.csv")
        assert loaded.runtime[0] == ds.runtime[0]


class TestValidation:
    def _base(self, tmp_path):
        _write_features(tmp_path / "w.csv", 3)
        _write_features(tmp_path / "p.csv", 2)
        return tmp_path / "w.csv", tmp_path / "p.csv"

    def test_bad_header(self, tmp_path):
        wf, pf = self._base(tmp_path)
        obs = tmp_path / "obs.csv"
        obs.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            import_trace_csv(obs, wf, pf)

    def test_out_of_range_workload(self, tmp_path):
        wf, pf = self._base(tmp_path)
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "workload,platform,interferer1,interferer2,interferer3,runtime_s\n"
            "99,0,,,,1.0\n"
        )
        with pytest.raises(ValueError, match="workload 99"):
            import_trace_csv(obs, wf, pf)

    def test_nonpositive_runtime(self, tmp_path):
        wf, pf = self._base(tmp_path)
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "workload,platform,interferer1,interferer2,interferer3,runtime_s\n"
            "0,0,,,,-1.0\n"
        )
        with pytest.raises(ValueError, match="positive"):
            import_trace_csv(obs, wf, pf)

    @pytest.mark.parametrize("runtime", ["nan", "inf", "-inf"])
    def test_nonfinite_runtime(self, tmp_path, runtime):
        wf, pf = self._base(tmp_path)
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "workload,platform,interferer1,interferer2,interferer3,runtime_s\n"
            "0,0,,,,1.0\n"
            f"1,1,,,,{runtime}\n"
        )
        with pytest.raises(ValueError, match="line 3: runtime must be .*finite"):
            import_trace_csv(obs, wf, pf)

    @pytest.mark.parametrize("interferer", ["-3", "-2", "3"])
    def test_out_of_range_interferer(self, tmp_path, interferer):
        # -1 (or empty) is padding; -3 would otherwise index from the end.
        wf, pf = self._base(tmp_path)
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "workload,platform,interferer1,interferer2,interferer3,runtime_s\n"
            "0,0,1,-1,,1.0\n"
            f"0,1,{interferer},,,1.0\n"
        )
        with pytest.raises(ValueError, match="line 3: interferer out of range"):
            import_trace_csv(obs, wf, pf)

    def test_padding_interferers_accepted(self, tmp_path):
        wf, pf = self._base(tmp_path)
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "workload,platform,interferer1,interferer2,interferer3,runtime_s\n"
            "0,0,2,-1,,1.0\n"
        )
        loaded = import_trace_csv(obs, wf, pf)
        assert loaded.interferers.tolist() == [[2, -1, -1]]

    def test_noncontiguous_feature_ids(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "workload,platform,interferer1,interferer2,interferer3,runtime_s\n"
        )
        bad = tmp_path / "w.csv"
        bad.write_text("id,f0\n0,1.0\n2,2.0\n")
        _write_features(tmp_path / "p.csv", 2)
        with pytest.raises(ValueError, match="contiguous"):
            import_trace_csv(obs, bad, tmp_path / "p.csv")

    def test_imported_trace_trains(self, tmp_path):
        """An imported trace drops straight into the training pipeline."""
        from repro.cluster import collect_dataset, make_split
        from repro.core import PitotConfig, TrainerConfig, train_pitot

        ds = collect_dataset(seed=5, n_workloads=15, n_devices=4,
                             n_runtimes=3, sets_per_degree=6)
        obs = tmp_path / "obs.csv"
        export_observations_csv(ds, obs)
        # Feature CSVs from the dataset's own matrices.
        for name, feats in (("w.csv", ds.workload_features),
                            ("p.csv", ds.platform_features)):
            lines = ["id," + ",".join(f"f{i}" for i in range(feats.shape[1]))]
            for idx, row in enumerate(feats):
                lines.append(f"{idx}," + ",".join(repr(float(v)) for v in row))
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        loaded = import_trace_csv(obs, tmp_path / "w.csv", tmp_path / "p.csv")
        split = make_split(loaded, 0.6, seed=0)
        result = train_pitot(
            split.train, split.calibration,
            model_config=PitotConfig(hidden=(8,), embedding_dim=4),
            trainer_config=TrainerConfig(steps=40, eval_every=20, seed=0),
        )
        assert np.isfinite(result.best_val_loss)
