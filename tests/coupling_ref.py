"""Reference views of the coupled state, for the coupling tests.

``X``, ``X_tilde`` and ``V`` read the interacting process, the
independent-sum process and the decoupling counter off a
``CouplingState``.  ``compensator_intensity`` is an unmemoized loop over
the coupled loads, written apart from the engine's memoized
``coupling._intensity``; it sums in the same order, so the two agree bit
for bit on the same densities.
"""

import numpy as np

from parasitelab.coupling import _ROW_MARGIN, CouplingState
from parasitelab.ode import OdeSolution
from parasitelab.rates import ModelSpec
from parasitelab.state import PopulationState


def X(state: CouplingState) -> PopulationState:
    n = max(state.Z1.max_load, state.Z2.max_load, 0) + 1
    return PopulationState.from_dense(state.Z1.to_dense(n) + state.Z2.to_dense(n))


def X_tilde(state: CouplingState) -> PopulationState:
    n = max(state.Z1.max_load, state.Z3.max_load, 0) + 1
    return PopulationState.from_dense(state.Z1.to_dense(n) + state.Z3.to_dense(n))


def V(state: CouplingState) -> int:
    return state.Z4 + state.Z3.total_hosts


def compensator_intensity(model: ModelSpec, state: CouplingState, t: float,
                          N: int, ode: OdeSolution, L_margin: int = _ROW_MARGIN) -> float:
    """Intensity of the decoupling counter's compensator at (state, t).

    Sum over coupled loads of the pointwise interaction-move and
    excess-death rate mismatches between the empirical density and the
    limit trajectory, plus N times the immigration mismatch.  Target
    sums are truncated ``L_margin`` loads above the wider of the two
    supports (the neglected tail is the offspring laws' far tail).
    """
    inter = model.interaction
    x_state = X(state)
    z1 = state.Z1.to_dense(max(state.Z1.max_load + 1, 1))
    width = max(x_state.max_load + 1, ode.J + 1)
    L = width - 1 + L_margin
    x = x_state.to_dense(width).astype(np.float64) / N
    y = np.zeros(width)
    y_raw = ode.density(t)
    y[: y_raw.size] = y_raw
    total = 0.0
    for i in np.nonzero(z1)[0]:
        i = int(i)
        if inter.alpha_loads is None or i in inter.alpha_loads:
            diff = inter.alpha_row_at(i, x, L) - inter.alpha_row_at(i, y, L)
            total += z1[i] * float(np.abs(diff).sum())
        if not inter.delta_zero:
            total += z1[i] * abs(inter.delta_at(i, x) - inter.delta_at(i, y))
    if not inter.beta_zero:
        diff = inter.beta_profile_at(x, L) - inter.beta_profile_at(y, L)
        total += N * float(np.abs(diff).sum())
    return total
