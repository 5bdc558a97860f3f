"""ObservationBuffer: per-pool windows, drift statistics, materialization."""

import numpy as np
import pytest

from repro.cluster import MAX_INTERFERERS, ObservationBuffer
from repro.cluster.collection import synthetic_fleet_dataset


def _stream(n, degree, rng, n_workloads=16, n_platforms=8, scale=1.0):
    """A batch of n observations at a fixed interference degree."""
    w = rng.integers(0, n_workloads, n)
    p = rng.integers(0, n_platforms, n)
    interferers = np.full((n, MAX_INTERFERERS), -1, dtype=np.intp)
    interferers[:, : degree - 1] = rng.integers(
        0, n_workloads, (n, degree - 1)
    )
    runtime = scale * np.exp(rng.normal(0.0, 0.3, n))
    return w, p, interferers, runtime


class TestIngestion:
    def test_rows_land_in_degree_pools(self, rng):
        buf = ObservationBuffer(window=100)
        buf.ingest(*_stream(30, 1, rng))
        buf.ingest(*_stream(20, 3, rng))
        assert buf.n_buffered(1) == 30
        assert buf.n_buffered(3) == 20
        assert buf.n_buffered(2) == 0
        assert buf.n_buffered() == 50
        assert buf.pools() == [1, 3]
        assert buf.total_ingested == 50

    def test_none_interferers_is_isolation(self, rng):
        buf = ObservationBuffer(window=10)
        buf.ingest(np.array([0]), np.array([0]), None, np.array([1.0]))
        assert buf.pools() == [1]

    def test_window_trims_oldest_per_pool(self, rng):
        buf = ObservationBuffer(window=8)
        w = np.arange(20)
        buf.ingest(w, np.zeros(20, int), None, np.ones(20))
        assert buf.n_buffered(1) == 8
        kept_w, _, _, _ = buf.window_rows()
        # The most recent 8 records survive, in ingestion order.
        np.testing.assert_array_equal(kept_w, np.arange(12, 20))

    def test_rejects_nonpositive_runtime(self, rng):
        buf = ObservationBuffer(window=4)
        with pytest.raises(ValueError, match="positive"):
            buf.ingest(np.array([0]), np.array([0]), None, np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_runtime(self, bad):
        buf = ObservationBuffer(window=4)
        with pytest.raises(ValueError, match="finite"):
            buf.ingest(
                np.array([0, 1]), np.array([0, 0]), None, np.array([1.0, bad])
            )
        # The whole batch is refused: nothing lands in a window.
        assert buf.n_buffered() == 0 and buf.total_ingested == 0

    def test_rejects_length_mismatch(self, rng):
        buf = ObservationBuffer(window=4)
        with pytest.raises(ValueError, match="length"):
            buf.ingest(np.array([0, 1]), np.array([0]), None, np.array([1.0]))

    def test_rejects_bad_interferer_shape(self, rng):
        buf = ObservationBuffer(window=4)
        with pytest.raises(ValueError, match="interferers"):
            buf.ingest(
                np.array([0]), np.array([0]),
                np.zeros((1, MAX_INTERFERERS + 1), int), np.array([1.0]),
            )

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ObservationBuffer(window=0)


class TestDriftStats:
    def test_shift_tracks_multiplicative_drift(self, rng):
        reference = synthetic_fleet_dataset(16, 8, 2000, seed=0)
        buf = ObservationBuffer(window=4000, reference=reference)
        drift = 1.6
        buf.ingest(
            reference.w_idx, reference.p_idx, reference.interferers,
            reference.runtime * drift,
        )
        stats = buf.drift_stats()
        for stat in stats.values():
            # Every pool's window is the reference scaled by `drift`, so
            # the mean log shift is exactly log(drift) up to window
            # truncation of the pool sample.
            assert stat.shift == pytest.approx(np.log(drift), abs=0.05)
            assert stat.score > 0
        assert buf.max_drift_score() > 0

    def test_no_reference_yields_nan_shift(self, rng):
        buf = ObservationBuffer(window=100)
        buf.ingest(*_stream(50, 2, rng))
        stat = buf.drift_stats()[2]
        assert stat.count == 50
        assert np.isnan(stat.shift) and np.isnan(stat.score)
        assert buf.max_drift_score() == 0.0

    def test_undrifted_stream_scores_low(self, rng):
        reference = synthetic_fleet_dataset(16, 8, 4000, seed=1)
        buf = ObservationBuffer(window=4000, reference=reference)
        buf.ingest(
            reference.w_idx, reference.p_idx, reference.interferers,
            reference.runtime,
        )
        assert buf.max_drift_score() < 0.1


class TestWindowDataset:
    def test_roundtrip_preserves_rows(self, rng):
        base = synthetic_fleet_dataset(16, 8, 500, seed=2)
        buf = ObservationBuffer(window=1000)
        buf.ingest_dataset(base)
        ds = buf.window_dataset(base)
        assert ds.n_observations == 500
        # Pools interleave back into global ingestion order.
        np.testing.assert_array_equal(ds.w_idx, base.w_idx)
        np.testing.assert_array_equal(ds.p_idx, base.p_idx)
        np.testing.assert_array_equal(ds.interferers, base.interferers)
        np.testing.assert_allclose(ds.runtime, base.runtime)
        assert ds.workload_features is base.workload_features

    def test_empty_buffer_refuses_materialization(self):
        base = synthetic_fleet_dataset(4, 4, 10, seed=3)
        buf = ObservationBuffer(window=10)
        with pytest.raises(ValueError, match="empty"):
            buf.window_dataset(base)

    def test_clear_drops_records_keeps_reference(self, rng):
        base = synthetic_fleet_dataset(16, 8, 200, seed=4)
        buf = ObservationBuffer(window=100, reference=base)
        buf.ingest_dataset(base)
        buf.clear()
        assert buf.n_buffered() == 0
        buf.ingest(
            base.w_idx[:50], base.p_idx[:50], base.interferers[:50],
            base.runtime[:50] * 2.0,
        )
        assert buf.max_drift_score() > 0  # reference survived the clear
