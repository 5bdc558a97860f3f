"""One-row-per-call form of ``repro.orchestration.BudgetOracle``.

Before the oracle batched its scoring requests, every scan row was its
own single-row ``predict_bound`` call. :class:`ScalarBudgetOracle` keeps
that loop: it overrides :meth:`BudgetOracle.budgets_arrays` (which
:meth:`BudgetOracle.budgets` routes through) and inherits everything
else, so the planners run unchanged on top of it. Outputs are
bit-identical to the batched oracle for row-independent predictors.
"""

from __future__ import annotations

import numpy as np

from repro.orchestration import BudgetOracle, PlacementProblem


class ScalarBudgetOracle(BudgetOracle):
    """A :class:`BudgetOracle` issuing one ``predict_bound`` per row."""

    def budgets_arrays(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray,
    ) -> np.ndarray:
        out = np.empty(len(w_idx))
        for i in range(len(w_idx)):
            out[i] = float(
                self.predictor.predict_bound(
                    w_idx[i : i + 1], p_idx[i : i + 1],
                    interferers[i : i + 1], self.epsilon,
                )[0]
            )
        return out


def scalar_oracle(problem: PlacementProblem) -> ScalarBudgetOracle:
    """The scalar-loop oracle over a problem's predictor and ε."""
    return ScalarBudgetOracle(problem.predictor, problem.epsilon)
