"""PitotModel.snapshot(): one tower pass per parameter state.

The snapshot is memoized on (generation, baseline object), so it is only
correct while every parameter write bumps the generation. Each test
below writes parameters one way and checks that the next snapshot is a
fresh one holding the new values, never the stale memo.
"""

import numpy as np
import pytest

from repro.core import (
    EmbeddingSnapshot,
    LinearScalingBaseline,
    PitotConfig,
    PitotModel,
    PitotTrainer,
    TrainerConfig,
)

ARRAYS = ("W", "P", "VS", "VG", "baseline_w", "baseline_p")


def assert_snapshot_current(model: PitotModel, stale=None) -> EmbeddingSnapshot:
    """``model.snapshot()`` equals a fresh tower pass and is not ``stale``."""
    snap = model.snapshot()
    assert snap is not stale
    assert snap.generation == model.generation
    fresh = EmbeddingSnapshot.from_model(model)
    for name in ARRAYS:
        np.testing.assert_array_equal(getattr(snap, name), getattr(fresh, name))
    return snap


@pytest.fixture()
def fitted(mini_split):
    """A small model fitted without validation (so no memo is adopted)."""
    model = PitotModel(
        mini_split.train.workload_features,
        mini_split.train.platform_features,
        PitotConfig(hidden=(8,), embedding_dim=4, learned_features=1),
        np.random.default_rng(0),
    )
    trainer = PitotTrainer(
        model, TrainerConfig(steps=3, batch_per_degree=32, seed=0)
    )
    trainer.fit(mini_split.train)
    return trainer


def test_repeated_calls_share_one_snapshot(fitted):
    model = fitted.model
    assert model.snapshot() is model.snapshot()


def test_memoized_arrays_are_read_only(fitted):
    snap = fitted.model.snapshot()
    for name in ARRAYS:
        assert not getattr(snap, name).flags.writeable
    with pytest.raises(ValueError):
        snap.W[0, 0, 0] = 1.0


@pytest.mark.parametrize("phase", ["fit", "update"])
def test_every_training_step_yields_a_fresh_snapshot(fitted, mini_split, phase):
    """After each gradient step the memo is stale, whichever phase runs it."""
    model = fitted.model
    real = PitotTrainer._gradient_step
    snaps = [model.snapshot()]

    def gradient_step(self, *args, **kwargs):
        loss = real(self, *args, **kwargs)
        snaps.append(assert_snapshot_current(model, stale=snaps[-1]))
        return loss

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PitotTrainer, "_gradient_step", gradient_step)
        if phase == "fit":
            fitted.fit(mini_split.train)
        else:
            fitted.update(mini_split.train, steps=3, rng=1)
    assert len(snaps) == 4


def test_load_state_dict_yields_a_fresh_snapshot(fitted):
    model = fitted.model
    before = model.snapshot()
    model.load_state_dict({k: v + 0.1 for k, v in model.state_dict().items()})
    after = assert_snapshot_current(model, stale=before)
    assert not np.array_equal(after.W, before.W)


def test_cast_yields_a_fresh_snapshot(fitted):
    model = fitted.model
    before = model.snapshot()
    model.cast(np.float32)
    after = assert_snapshot_current(model, stale=before)
    # Parameters rounded to float32 move the embeddings.
    assert not np.array_equal(after.W, before.W)


def test_baseline_reassignment_yields_a_fresh_snapshot(fitted):
    model = fitted.model
    before = model.snapshot()
    model.baseline = LinearScalingBaseline.from_parameters(
        model.baseline.w_bar + 1.0, model.baseline.p_bar.copy()
    )
    after = assert_snapshot_current(model, stale=before)
    np.testing.assert_array_equal(after.baseline_w, before.baseline_w + 1.0)


def test_clone_yields_a_fresh_snapshot(fitted):
    model = fitted.model
    before = model.snapshot()
    clone = model.clone()
    after = assert_snapshot_current(clone, stale=before)
    for name in ARRAYS:
        np.testing.assert_array_equal(getattr(after, name), getattr(before, name))


def test_fit_adopts_the_best_validation_snapshot(mini_split, monkeypatch):
    """``fit`` leaves as memo the snapshot its best validation pass took:
    equal to a fresh tower pass, and reading it costs no tower pass."""
    model = PitotModel(
        mini_split.train.workload_features,
        mini_split.train.platform_features,
        PitotConfig(hidden=(8,), embedding_dim=4, learned_features=1),
        np.random.default_rng(0),
    )
    # Rank the middle of three validation passes best, so the adopted
    # snapshot is neither the first nor the last one taken.
    ranks = iter([3.0, 1.0, 2.0])
    real_loss = PitotTrainer.evaluate_loss
    monkeypatch.setattr(
        PitotTrainer,
        "evaluate_loss",
        lambda self, *a, **k: real_loss(self, *a, **k) * 0 + next(ranks),
    )
    result = PitotTrainer(
        model, TrainerConfig(steps=30, eval_every=10, batch_per_degree=32)
    ).fit(mini_split.train, mini_split.calibration)
    monkeypatch.undo()
    assert result.best_step == 20
    passes = []
    real = PitotModel.compute_embeddings
    monkeypatch.setattr(
        PitotModel,
        "compute_embeddings",
        lambda self, fused=False: passes.append(fused) or real(self, fused),
    )
    snap = model.snapshot()
    assert passes == []
    monkeypatch.undo()
    assert_snapshot_current(model)
    assert snap is model.snapshot()
