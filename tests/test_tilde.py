import dataclasses
import math

import numpy as np
import pytest

from conftest import STANDARD_X0, pure_death_model
from parasitelab import OffspringLaw, luchsinger_nonlinear
from parasitelab.ode import integrate
from parasitelab.rates import BaselineGenerator, Envelopes, InteractionSpec, \
    ModelSpec
from parasitelab.state import PopulationState, l11_norm
from parasitelab.tilde import (DominatingRateError, TildeRates, concentration_check,
                               mean_identity_check, moment_bound_check,
                               simulate_individual, simulate_tilde,
                               window_fluctuation_check)


def still_model():
    return ModelSpec("still", BaselineGenerator(lambda i: (), lambda i: 0.0, 1.0, 1.0),
                     _const_death_interaction(0.0))


def _const_death_interaction(c: float) -> InteractionSpec:
    # constant excess death rate c, nothing else
    return InteractionSpec(
        alpha_total=lambda i, x: 0.0, alpha_sample=None,
        alpha_pointwise=lambda i, l, x: 0.0,
        beta_total=lambda x: 0.0, beta_sample=None,
        beta_pointwise=lambda i, x: 0.0,
        delta=lambda i, x: c,
        envelopes=Envelopes(d0=c),
        alpha_loads=frozenset(),
        delta_zero=(c == 0.0), beta_zero=True,
    )


def _const_immigration_interaction(c: float) -> InteractionSpec:
    return InteractionSpec(
        alpha_total=lambda i, x: 0.0, alpha_sample=None,
        alpha_pointwise=lambda i, l, x: 0.0,
        beta_total=lambda x: c, beta_sample=lambda x, rng: 0,
        beta_pointwise=lambda i, x: c if i == 0 else 0.0,
        delta=lambda i, x: 0.0,
        envelopes=Envelopes(b10=c),
        alpha_loads=frozenset(), delta_zero=True,
    )


def test_individual_all_rates_zero():
    sol = integrate(still_model(), np.array([1.0]), 1.0, J=1)
    rates = TildeRates(still_model(), sol, 10)
    ind = simulate_individual(rates, 3, 0.0, 1.0, 0)
    assert ind.events == [] and ind.alive and ind.final_load == 3


def test_individual_pure_death_frequency():
    pd = pure_death_model(1.0)
    sol = integrate(pd, np.array([0.0, 1.0]), 1.0, J=1)
    rates = TildeRates(pd, sol, 1)
    runs = 5000
    jumped = sum(bool(simulate_individual(rates, 1, 0.0, 1.0, s).events)
                 for s in range(runs))
    p = 1.0 - math.exp(-1.0)
    se = math.sqrt(p * (1 - p) / runs)
    assert abs(jumped / runs - p) <= 3 * se


def test_individual_constant_excess_death_survival():
    c, T = 0.8, 1.5
    m = ModelSpec("kill", BaselineGenerator(lambda i: (), lambda i: 0.0, 1.0, 1.0),
                  _const_death_interaction(c))
    sol = integrate(m, np.array([1.0]), T, J=1)
    rates = TildeRates(m, sol, 10)
    runs = 5000
    survived = sum(simulate_individual(rates, 0, 0.0, T, s).alive
                   for s in range(runs))
    p = math.exp(-c * T)
    se = math.sqrt(p * (1 - p) / runs)
    assert abs(survived / runs - p) <= 3 * se


def test_thinning_soundness_fault_injection(model61, xi0_100):
    # deflating the declared envelope must trip the dominating-rate check
    sol = integrate(model61, STANDARD_X0, 1.0, J=54)
    corrupt_env = Envelopes(a01=lambda z: 0.01,
                            a11=model61.interaction.envelopes.a11)
    bad_inter = dataclasses.replace(model61.interaction, envelopes=corrupt_env)
    bad = ModelSpec(model61.name, model61.baseline, bad_inter)
    with pytest.raises(DominatingRateError):
        for s in range(50):
            simulate_tilde(bad, xi0_100, 100, 1.0, sol, s)


def test_tilde_constant_path_when_inert():
    m = still_model()
    sol = integrate(m, np.array([0.4, 0.6]), 1.0, J=1)
    xi0 = PopulationState.from_dict({0: 4, 1: 6})
    path = simulate_tilde(m, xi0, 10, 1.0, sol, 5)
    assert path.n_jumps == 0 and path.final == xi0


def test_tilde_poisson_immigrant_count():
    # constant immigration at rate N c: total immigrants ~ Poisson(N c T)
    c, N, T, runs = 0.4, 20, 1.0, 1000
    m = ModelSpec("imm", BaselineGenerator(lambda i: (), lambda i: 0.0, 1.0, 1.0),
                  _const_immigration_interaction(c))
    sol = integrate(m, np.array([1.0]), T, J=1)
    xi0 = PopulationState.from_dict({0: N})
    counts = []
    ss = np.random.SeedSequence(8)
    for child in ss.spawn(runs):
        path = simulate_tilde(m, xi0, N, T, sol, child)
        counts.append(path.n_jumps)
    mean = float(np.mean(counts))
    lam = N * c * T
    se = math.sqrt(lam / runs)
    assert abs(mean - lam) <= 3 * se


def test_tilde_determinism(model61, xi0_100, sol61_T1):
    a = simulate_tilde(model61, xi0_100, 100, 1.0, sol61_T1, 77)
    b = simulate_tilde(model61, xi0_100, 100, 1.0, sol61_T1, 77)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.load_to, b.load_to)


def test_tilde_mean_matches_ode(model61, xi0_100, sol61_T1):
    # aggregate means track N x(t); variance bounded by the mean
    N, T, runs = 100, 1.0, 800
    acc = np.zeros(60)
    ss = np.random.SeedSequence(31)
    for child in ss.spawn(runs):
        path = simulate_tilde(model61, xi0_100, N, T, sol61_T1, child)
        c = path.counts_at([T], 60)
        acc[: c.shape[1]] += c[0]
    emp = acc / runs
    x = sol61_T1.density(T)
    for j in range(12):
        target = N * x[j]
        se = max(math.sqrt(max(target, emp[j]) / runs), 1e-9)
        assert abs(emp[j] - target) <= 4 * se, (j, emp[j], target)


def test_exchangeability_of_individual_seeds(model61, sol61_T1):
    # permuting which host gets which seed leaves the aggregate law alone;
    # with frozen interaction rates individuals never see each other, so
    # assigning the same child streams in a different host order must give
    # means within Monte Carlo tolerance
    N, runs = 60, 400
    xi_a = PopulationState.from_dict({0: 54, 1: 6})
    total_a = np.zeros(40)
    total_b = np.zeros(40)
    ss1 = np.random.SeedSequence(11)
    ss2 = np.random.SeedSequence(12)
    for child_a, child_b in zip(ss1.spawn(runs), ss2.spawn(runs)):
        pa = simulate_tilde(model61, xi_a, N, 1.0, sol61_T1, child_a)
        pb = simulate_tilde(model61, xi_a, N, 1.0, sol61_T1, child_b)
        ca = pa.counts_at([1.0], 40)
        cb = pb.counts_at([1.0], 40)
        total_a[: ca.shape[1]] += ca[0]
        total_b[: cb.shape[1]] += cb[0]
    for j in range(6):
        se = math.sqrt(max(total_a[j], total_b[j], 1.0)) / runs
        assert abs(total_a[j] - total_b[j]) / runs <= 4 * se + 0.05


def test_moment_bound_check(model61_heavy):
    # supercritical offspring mean gives the bound a positive margin
    N, T = 100, 1.0
    xi0 = PopulationState.from_dict({0: 90, 1: 10})
    sol = integrate(model61_heavy, STANDARD_X0, T, J=54)
    rep = moment_bound_check(model61_heavy, xi0, N, T, sol, 150, 3)
    assert rep.ok and rep.margin > 0.0
    assert rep.empirical_sup >= l11_norm(STANDARD_X0) - 0.2
    assert np.all(np.isfinite(rep.empirical))


def test_moment_bound_check_monotone_without_growth():
    # no immigration, no interaction: the l11 moment only decays
    pd = pure_death_model(1.0)
    sol = integrate(pd, np.array([0.0, 1.0]), 1.0, J=1)
    xi0 = PopulationState.from_dict({1: 20})
    rep = moment_bound_check(pd, xi0, 20, 1.0, sol, 100, 9)
    assert rep.ok
    assert rep.empirical[0] == pytest.approx(rep.empirical.max())


def test_concentration_check(model61, xi0_100, sol61_T1):
    rep = concentration_check(model61, xi0_100, 100, 1.0, sol61_T1, 150, 4)
    assert rep.ok
    assert rep.empirical_mean.max() < rep.bound / 3.0
    assert all(0.0 <= f <= 1.0 for f in rep.tail_frequency.values())
    with pytest.raises(ValueError):
        concentration_check(model61, xi0_100, 8, 1.0, sol61_T1, 10, 2)


def test_window_fluctuations(model61, xi0_100, sol61_T1):
    rep = window_fluctuation_check(model61, xi0_100, 100, 1.0, sol61_T1,
                                   replicas=60, seed=2, K=1.0, a=2.0)
    assert rep.windows_checked > 0
    assert rep.frequency <= 0.05


def test_mean_identity_check_paths_past_its_width():
    # heavy offspring on a coarse truncation: replicas reach loads past
    # max(J + 1, max_load + 1); the report reads only loads 0..max_load
    model = luchsinger_nonlinear(2.0, 0.2, 1.0, OffspringLaw.poisson(8.0))
    N, T, R, max_load, ts = 40, 1.0, 20, 12, [0.5, 1.0]
    xi0 = PopulationState.from_dict({0: 20, 1: 20})
    sol = integrate(model, np.array([0.5, 0.5]), T, J=6)
    rep = mean_identity_check(model, xi0, N, T, sol, R, 1, ts=ts, max_load=max_load)
    widths = []
    sums = np.zeros((len(ts), max_load + 1))
    for child in np.random.SeedSequence(1).spawn(R):
        counts = simulate_tilde(model, xi0, N, T, sol, child).counts_at(ts)
        widths.append(counts.shape[1])
        sums += counts[:, : max_load + 1]
    assert max(widths) > max(sol.J + 1, max_load + 1)
    assert [(r.t, r.load) for r in rep.rows] == [(t, j) for t in ts for j in range(max_load + 1)]
    assert [r.empirical for r in rep.rows] == (sums / R).ravel().tolist()
