"""The autograd-``Tensor`` inference forward and the per-ε evaluation.

``PitotModel.predict_log`` once ran its own forward: both towers through
``compute_embeddings`` and the Eq. 9 batch forward on ``Tensor`` operands,
under ``no_grad``. It now reads the memoized ``EmbeddingSnapshot``, whose
ndarray forward performs the same operations in the same order, so
:func:`predict_log` here must agree with it bit for bit.

:func:`evaluate_predictions` is the evaluate stage's prediction-derived
metrics as they were computed before the stage shared one forward across
MAPE and every ε: one reference forward per query.
"""

from __future__ import annotations

import numpy as np

from repro.eval.metrics import coverage, mape, overprovision_margin
from repro.nn import no_grad


def predict_log(model, w_idx, p_idx, interferers=None, chunk: int = 4096):
    """Natural-log predictions ``(n, H)`` from a fresh tower pass."""
    w_idx = np.asarray(w_idx, dtype=np.intp)
    p_idx = np.asarray(p_idx, dtype=np.intp)
    if interferers is not None:
        interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
    n = len(w_idx)
    out = np.empty((n, model.config.n_heads))
    with no_grad():
        embeddings = model.compute_embeddings()
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            sub_int = None if interferers is None else interferers[lo:hi]
            pred = model.forward(
                w_idx[lo:hi], p_idx[lo:hi], sub_int, embeddings=embeddings
            )
            out[lo:hi] = pred.data
    return out + model.baseline_log(w_idx, p_idx)[:, None]


def evaluate_predictions(model, predictor, test, epsilons) -> dict:
    """MAPE by interference and coverage/margin per ε on ``test``."""
    queries = (test.w_idx, test.p_idx, test.interferers)
    pred = np.exp(predict_log(model, *queries)[:, 0])
    iso = test.isolation_mask()
    metrics: dict = {
        "mape_isolation": (
            float(mape(pred[iso], test.runtime[iso])) if iso.any() else None
        ),
        "mape_interference": (
            float(mape(pred[~iso], test.runtime[~iso])) if (~iso).any() else None
        ),
    }
    by_epsilon = {}
    for eps in epsilons:
        bound = predictor.predict_bound_dataset(
            test, eps, log_pred=predict_log(predictor.model, *queries)
        )
        margin = float(overprovision_margin(bound, test.runtime))
        by_epsilon[repr(float(eps))] = {
            "coverage": float(coverage(bound, test.runtime)),
            "margin": margin if np.isfinite(margin) else None,
        }
    metrics["epsilons"] = by_epsilon
    return metrics
