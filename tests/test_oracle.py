import math

import numpy as np
import pytest

from conftest import pure_death_model
from oracle import (OracleCapExceeded, OracleInadmissible,
                                enumerate_chain, transient_moments)
from parasitelab.rates import BaselineGenerator, ModelSpec
from parasitelab.state import PopulationState
from conftest import empty_interaction


def test_single_host_pure_death_chain():
    pd = pure_death_model(1.0)
    chain = enumerate_chain(pd, PopulationState.from_dict({1: 1}), 1, 2)
    assert chain.n_states == 2
    mom = transient_moments(chain, 1.0)
    assert mom.means[1] == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert mom.means[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)
    assert mom.overflow_mass == 0.0


def test_empty_model_single_state():
    m = ModelSpec("still", BaselineGenerator(lambda i: (), lambda i: 0.0, 1.0, 1.0),
                  empty_interaction())
    chain = enumerate_chain(m, PopulationState.from_dict({0: 2}), 2, 1)
    assert chain.n_states == 1
    assert np.allclose(chain.Q, 0.0)
    mom = transient_moments(chain, 3.0)
    assert mom.means[0] == pytest.approx(2.0)


def test_moments_at_zero(model_tiny):
    xi0 = PopulationState.from_dict({0: 1, 2: 1})
    chain = enumerate_chain(model_tiny, xi0, 2, 2)
    mom = transient_moments(chain, 0.0)
    assert np.allclose(mom.means, [1.0, 0.0, 1.0])
    assert np.allclose(mom.variances, 0.0)


def test_hand_built_generator(model_tiny):
    # two hosts, loads capped at 2, point-mass transmission: 6 states
    lam, mu, kappa = 0.5, 1.0, 0.5
    xi0 = PopulationState.from_dict({0: 1, 2: 1})
    chain = enumerate_chain(model_tiny, xi0, 2, 2)
    assert chain.n_states == 6

    def idx(c):
        return chain.index[c]

    Q = chain.Q
    # (1,0,1): infection at lam/2 to (0,0,2); 2->1 at 2 mu; catastrophe kappa
    s = idx((1, 0, 1))
    assert Q[s, idx((0, 0, 2))] == pytest.approx(lam * 0.5)
    assert Q[s, idx((1, 1, 0))] == pytest.approx(2 * mu)
    assert Q[s, idx((2, 0, 0))] == pytest.approx(kappa)
    # (1,1,0): 1->0 at mu + kappa; infection lam/2 to (0,2,0)
    s = idx((1, 1, 0))
    assert Q[s, idx((2, 0, 0))] == pytest.approx(mu + kappa)
    assert Q[s, idx((0, 2, 0))] == pytest.approx(lam * 0.5)
    # (2,0,0) absorbing
    assert np.allclose(Q[idx((2, 0, 0))], 0.0)
    # (0,2,0): both infected hosts decay
    assert Q[idx((0, 2, 0)), idx((1, 1, 0))] == pytest.approx(2 * (mu + kappa))
    # (0,1,1): decay of each host plus catastrophe of the 2-host
    s = idx((0, 1, 1))
    assert Q[s, idx((1, 0, 1))] == pytest.approx(mu + kappa)
    assert Q[s, idx((0, 2, 0))] == pytest.approx(2 * mu)
    assert Q[s, idx((1, 1, 0))] == pytest.approx(kappa)
    # (0,0,2): two decays, two catastrophes
    s = idx((0, 0, 2))
    assert Q[s, idx((0, 1, 1))] == pytest.approx(2 * 2 * mu)
    assert Q[s, idx((1, 0, 1))] == pytest.approx(2 * kappa)
    # generator rows sum to zero (the overflow column absorbs the rest)
    assert np.allclose(Q.sum(axis=1), 0.0, atol=1e-12)
    assert np.all(Q - np.diag(np.diag(Q)) >= 0.0)


def test_probability_conservation(model_tiny):
    xi0 = PopulationState.from_dict({0: 1, 2: 1})
    chain = enumerate_chain(model_tiny, xi0, 2, 2)
    from scipy.linalg import expm
    for t in (0.2, 1.0, 4.0):
        p = expm(chain.Q * t)[chain.initial]
        assert abs(p.sum() - 1.0) < 1e-10


def test_overflow_budget_enforced(model61):
    # a tight load cap leaks probability into the overflow state
    xi0 = PopulationState.from_dict({0: 2, 1: 1})
    chain = enumerate_chain(model61, xi0, 3, 1)
    assert chain.Q[:, chain.overflow].max() > 0.0
    with pytest.raises(OracleInadmissible):
        transient_moments(chain, 5.0, overflow_budget=1e-12)


def test_state_cap_enforced(model62):
    xi0 = PopulationState.from_dict({1: 5})
    with pytest.raises(OracleCapExceeded):
        enumerate_chain(model62, xi0, 10, 5, state_cap=20)


def test_oracle_matches_ssa_quick(model_tiny):
    # marginal means of the exact simulator against the matrix exponential
    from parasitelab.ssa import simulate
    xi0 = PopulationState.from_dict({0: 1, 2: 1})
    chain = enumerate_chain(model_tiny, xi0, 2, 2)
    mom = transient_moments(chain, 1.0)
    runs = 2000
    acc = np.zeros(3)
    for s in range(runs):
        acc += simulate(model_tiny, xi0, 2, 1.0, s).counts_at([1.0], 3)[0]
    emp = acc / runs
    for j in range(3):
        se = max(math.sqrt(mom.variances[j] / runs), 1e-9)
        assert abs(emp[j] - mom.means[j]) <= 3.5 * se, (j, emp[j], mom.means[j])
