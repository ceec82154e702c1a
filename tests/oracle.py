"""Brute-force transient analysis of tiny instances (test support only).

Enumerates the reachable joint state space under a load cap, builds the
dense generator by expanding every event channel into per-target rates,
and computes transient moments through the matrix exponential.  Rate
mass leaving the caps accumulates in one absorbing overflow state whose
transient mass must stay below a budget for the oracle to be usable.

It lives with the tests, which use it as an independent reference for
the event-driven simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from parasitelab.rates import ModelSpec
from parasitelab.state import PopulationState

STATE_CAP_DEFAULT = 5_000


class OracleCapExceeded(RuntimeError):
    """The reachable state space outgrew the state cap."""


class OracleInadmissible(RuntimeError):
    """Transient overflow mass exceeded the budget; results unusable."""


@dataclass
class EnumeratedChain:
    """Dense generator over the enumerated joint states plus overflow.

    ``states[k]`` is the count tuple over loads 0..load_cap; the last
    generator row/column is the absorbing overflow state.  Off-diagonal
    entries are nonnegative and rows sum to zero (deaths keep the state
    in the space, so no mass leaves except into overflow).
    """

    model_name: str
    N: int
    load_cap: int
    states: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    Q: np.ndarray
    initial: int

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def overflow(self) -> int:
        return len(self.states)

    def counts_matrix(self) -> np.ndarray:
        return np.array(self.states, dtype=np.float64)


def enumerate_chain(model: ModelSpec, xi0: PopulationState, N: int,
                    load_cap: int, state_cap: int = STATE_CAP_DEFAULT) -> EnumeratedChain:
    """Breadth-first enumeration of the reachable states under the caps."""
    if xi0.max_load > load_cap:
        raise ValueError("initial state already above the load cap")
    inter = model.interaction
    base = model.baseline
    start = tuple(int(c) for c in xi0.to_dense(load_cap + 1))

    states = [start]
    index = {start: 0}
    rows: list[dict[int, float]] = []
    overflow_rates: list[float] = []
    frontier = [start]

    def state_index(s: tuple[int, ...]) -> int:
        k = index.get(s)
        if k is None:
            if len(states) >= state_cap:
                raise OracleCapExceeded(f"state cap {state_cap} exceeded")
            k = len(states)
            states.append(s)
            index[s] = k
            frontier.append(s)
        return k

    while frontier:
        s = frontier.pop()
        k = index[s]
        while len(rows) <= k:
            rows.append({})
            overflow_rates.append(0.0)
        counts = np.array(s, dtype=np.int64)
        x = counts.astype(np.float64) / N
        row = rows[k]
        over = 0.0

        def add(dest: tuple[int, ...], rate: float) -> None:
            if rate <= 0.0:
                return
            j = state_index(dest)
            row[j] = row.get(j, 0.0) + rate

        for i in np.nonzero(counts)[0]:
            i = int(i)
            # baseline moves
            targets, mrates = base.move_table(i)
            for jt, r in zip(targets, mrates):
                rate = counts[i] * float(r)
                if jt > load_cap:
                    over += rate
                    continue
                dest = list(s)
                dest[i] -= 1
                dest[int(jt)] += 1
                add(tuple(dest), rate)
            # deaths (baseline + interaction)
            drate = counts[i] * (base.dbar(i) + inter.delta_at(i, x))
            if drate > 0.0:
                dest = list(s)
                dest[i] -= 1
                add(tuple(dest), drate)
            # interaction moves, expanded by target
            a_tot = inter.alpha_total_at(i, x)
            if a_tot > 0.0:
                arow = inter.alpha_row_at(i, x, load_cap)
                enumerated = 0.0
                for l in np.nonzero(arow)[0]:
                    l = int(l)
                    if l == i:
                        continue
                    rate = counts[i] * float(arow[l])
                    enumerated += float(arow[l])
                    dest = list(s)
                    dest[i] -= 1
                    dest[l] += 1
                    add(tuple(dest), rate)
                over += counts[i] * max(0.0, a_tot - enumerated)
        # immigration, expanded by arriving load
        b_tot = inter.beta_total_at(x)
        if b_tot > 0.0:
            brow = inter.beta_profile_at(x, load_cap)
            enumerated = 0.0
            for l in np.nonzero(brow)[0]:
                l = int(l)
                rate = N * float(brow[l])
                enumerated += float(brow[l])
                dest = list(s)
                dest[l] += 1
                add(tuple(dest), rate)
            over += N * max(0.0, b_tot - enumerated)
        overflow_rates[k] = over

    n = len(states)
    Q = np.zeros((n + 1, n + 1))
    for k, row in enumerate(rows):
        for j, rate in row.items():
            Q[k, j] = rate
        Q[k, n] = overflow_rates[k]
        Q[k, k] = -(sum(row.values()) + overflow_rates[k])
    return EnumeratedChain(model.name, N, load_cap, states, index, Q, 0)


@dataclass
class OracleMoments:
    """Exact transient per-load moments from the matrix exponential."""

    t: float
    means: np.ndarray
    variances: np.ndarray
    overflow_mass: float


def transient_moments(chain: EnumeratedChain, t: float,
                      overflow_budget: float = 1e-8) -> OracleMoments:
    """Per-load expected counts (and variances) at time t.

    Raises ``OracleInadmissible`` when the transient overflow mass
    exceeds the budget, since the enumerated moments then undercount.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    P = expm(chain.Q * t)
    p = P[chain.initial]
    total = float(p.sum())
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(f"probability mass {total} drifted from 1")
    over = float(p[chain.overflow])
    if over > overflow_budget:
        raise OracleInadmissible(
            f"overflow mass {over:.3e} exceeds budget {overflow_budget:.3e}")
    C = chain.counts_matrix()
    ps = p[: chain.n_states]
    means = ps @ C
    second = ps @ (C * C)
    return OracleMoments(t, means, np.maximum(second - means ** 2, 0.0), over)
