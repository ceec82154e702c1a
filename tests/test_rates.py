import math

import numpy as np
import pytest

from conftest import empty_interaction, pure_death_model
from parasitelab import OffspringLaw, luchsinger_nonlinear
from parasitelab.rates import (BaselineGenerator, EventKind,
                               LipschitzSampleConfig, ModelSpec,
                               bound_constants, check_growth,
                               check_lipschitz_sampled,
                               semigroup_moment)
from parasitelab.ssa import simulate
from parasitelab.state import PopulationState


def test_simulate_empty_state_never_jumps(model61):
    # the empty state is absorbing: its total jump rate is zero
    path = simulate(model61, PopulationState.empty(), 5, 1.0, 0)
    assert path.n_jumps == 0 and path.final == PopulationState.empty()


def test_simulate_single_pure_death():
    pd = pure_death_model(mu=0.7)
    path = simulate(pd, PopulationState.from_dict({1: 1}), 1, 100.0, 4)
    assert path.n_jumps == 1
    assert path.kind(0) is EventKind.BASELINE_MOVE
    assert (path.load_from[0], path.load_to[0]) == (1, 0)
    # the single channel's rate is mu: the waiting time is Exp(0.7) on the same stream
    assert path.times[0] == np.random.default_rng(4).exponential(1.0 / 0.7)


def test_nonlinear_example_rates():
    # one healthy host and one 2-host at N = 2, point-mass transmission:
    # the 2-host moves 2->1 at 2 mu and catastrophes at kappa, the healthy
    # host is infected at lam x^2 (1 - p_{20})
    lam, mu, kappa = 0.5, 1.0, 0.5
    m = luchsinger_nonlinear(lam, mu, kappa, OffspringLaw.point_mass(1))
    base, inter = m.baseline, m.interaction
    targets, rates = base.move_table(2)
    assert dict(zip(targets.tolist(), rates.tolist())) == pytest.approx({1: 2 * mu, 0: kappa})
    assert base.move_table(0)[0].size == 0
    assert base.dbar(0) == base.dbar(2) == 0.0
    xi = PopulationState.from_dict({0: 1, 2: 1})
    x = xi.to_dense() / 2.0
    assert inter.alpha_total_at(0, x) == pytest.approx(lam * 0.5)
    assert inter.alpha_total_at(2, x) == 0.0
    assert inter.delta_at(0, x) == inter.delta_at(2, x) == 0.0
    assert inter.beta_total_at(x) == 0.0
    # nothing else fires: the SSA's first waiting time is at exactly that total
    total = 2 * mu + kappa + lam * 0.5
    assert simulate(m, xi, 2, 100.0, 9).times[0] == pytest.approx(
        np.random.default_rng(9).exponential(1.0 / total), rel=1e-12)


def test_total_rate_linear_in_counts(model61):
    # doubling counts and N keeps the density fixed and doubles every channel,
    # so the first waiting time on the same stream halves
    xi = PopulationState.from_dict({0: 3, 1: 2, 3: 1})
    xi2 = PopulationState.from_dict({0: 6, 1: 4, 3: 2})
    t1 = simulate(model61, xi, 6, 100.0, 5).times[0]
    t2 = simulate(model61, xi2, 12, 100.0, 5).times[0]
    assert t2 == pytest.approx(t1 / 2, rel=1e-12)


def test_total_rate_pure_death_k_hosts():
    pd = pure_death_model(mu=1.0)
    path = simulate(pd, PopulationState.from_dict({1: 7}), 7, 100.0, 6)
    assert path.times[0] == np.random.default_rng(6).exponential(1.0 / 7.0)
    assert path.n_jumps == 7 and path.final == PopulationState.from_dict({0: 7})


def test_interaction_target_sampling(model_tiny):
    x = PopulationState.from_dict({0: 1, 2: 1}).to_dense() / 2.0
    rng = np.random.default_rng(0)
    # point-mass transmission from the only infected host (load 2) is always 2
    assert all(model_tiny.interaction.alpha_sample(0, x, rng) == 2 for _ in range(20))


def _exit_table() -> BaselineGenerator:
    # load 3: moves to 0, 2, 4 at 0.5, 1.0, 0.25 and death at 0.75;
    # load 5: a single move at 0.1, no death
    def moves(i):
        return {3: ((0, 0.5), (2, 1.0), (4, 0.25)), 5: ((4, 0.1),)}.get(i, ())

    return BaselineGenerator(moves, lambda i: 0.75 if i == 3 else 0.0, m1=3.0, m2=1.0)


def test_sample_exit_cumulative_intervals():
    base = _exit_table()
    # [0, 0.5) -> 0, [0.5, 1.5) -> 2, [1.5, 1.75) -> 4, [1.75, 2.5) is death
    for u, want in ((0.0, 0), (0.49, 0), (0.5, 2), (1.2, 2), (1.5, 4), (1.74, 4)):
        assert base.sample_exit(3, u, base.dbar(3)) == want
    for u in (base.alpha_star(3), 2.0, 2.49):
        assert base.sample_exit(3, u, base.dbar(3)) is None
    # no moves and no death: nothing to return
    assert base.sample_exit(0, 0.0, 0.0) is None


def test_sample_exit_without_death_always_moves():
    base = _exit_table()
    for i in (3, 5):
        top = base.alpha_star(i)
        last = int(base.move_table(i)[0][-1])
        # just below alpha_star, and at alpha_star itself (a scaled uniform can
        # round up to it), the last move is taken, never death
        assert base.sample_exit(i, math.nextafter(top, 0.0), 0.0) == last
        assert base.sample_exit(i, top, 0.0) == last


def test_bound_constants_frozen_values():
    # lam = mu = kappa = 1, theta = 0.8, M_T = G_T = 2
    m = luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8))
    bc = bound_constants(m, 2.0, 2.0)
    assert bc.a0_star == 0.0
    assert bc.a1_star == 0.0          # lam (max(theta,1) - 1) with theta < 1
    assert bc.H1 == pytest.approx(2.0)
    assert bc.H2 == pytest.approx(1.0)


def test_bound_constants_a1_star_supercritical(model61_heavy):
    e = model61_heavy.interaction.envelopes
    bc = bound_constants(model61_heavy, 1.5, 1.0)
    assert bc.a1_star == pytest.approx(e.a11(0.0) - e.a01(0.0))
    assert bc.a1_star == pytest.approx(1.0 * (1.5 - 1.0))


def test_bound_constants_baseline_only():
    m = ModelSpec("plain", pure_death_model().baseline, empty_interaction())
    bc = bound_constants(m, 1.0, 1.0)
    assert bc.H1 == 0.0 and bc.H2 == 0.0


def test_check_growth_examples(model61):
    rep = check_growth(model61, 1000)
    assert rep.ok and rep.max_ratio <= 1.0
    # catastrophe column: rate kappa from every load >= 2, finite max
    assert rep.column_max[0] == pytest.approx(2.0)  # mu + kappa at load 1

    def bad_death(i):
        return float(i * i)

    bad = BaselineGenerator(lambda i: (), bad_death, m1=3.0, m2=1.0)
    rep = check_growth(ModelSpec("bad", bad, empty_interaction()), 50)
    assert not rep.ok
    i, lhs, rhs = rep.first_violation
    assert lhs > rhs and i * i > 3.0 * (i + 1)

    empty = BaselineGenerator(lambda i: (), lambda i: 0.0, m1=1.0, m2=1.0)
    assert check_growth(ModelSpec("empty", empty, empty_interaction()), 20).ok


def test_check_lipschitz_sampled(model61):
    rep = check_lipschitz_sampled(model61, LipschitzSampleConfig(n_pairs=200, seed=3))
    assert rep.ok, rep.ratios
    assert all(r <= 1.0 + 1e-9 for r in rep.ratios.values())


def test_check_lipschitz_constant_rates():
    # constant interaction rates have zero differences for any pair
    inter = empty_interaction()
    m = ModelSpec("const", pure_death_model().baseline, inter)
    rep = check_lipschitz_sampled(m, LipschitzSampleConfig(n_pairs=30, seed=1))
    assert rep.ok
    assert all(r == 0.0 for r in rep.ratios.values())


def test_semigroup_moment_identity_at_zero(model61):
    for i in (0, 2, 7):
        assert semigroup_moment(model61.baseline, i, 0.0, 20) == pytest.approx(i + 1)


def test_semigroup_moment_pure_death_closed_form():
    pd = pure_death_model(mu=1.0)
    for t in (0.3, 1.0, 2.5):
        assert semigroup_moment(pd.baseline, 1, t, 5) == pytest.approx(
            1.0 + math.exp(-t), abs=1e-10)


def test_semigroup_moment_bounded_by_drift(model61):
    # with w = 0 the (load + 1) moment never exceeds i + 1
    for i in (0, 1, 5, 20):
        for t in (0.1, 1.0, 2.0):
            val = semigroup_moment(model61.baseline, i, t, 80)
            assert val <= (i + 1) * (1 + 1e-9)
    with pytest.raises(ValueError):
        semigroup_moment(model61.baseline, 10, 1.0, 5)


def test_nonfinite_rate_reported_with_load_and_kind():
    import dataclasses

    from parasitelab.rates import ModelEvaluationError
    pd = pure_death_model()
    inter = dataclasses.replace(
        empty_interaction(), delta=lambda i, x: math.nan, delta_zero=False,
        alpha_loads=frozenset())
    m = ModelSpec("nan-delta", pd.baseline, inter)
    with pytest.raises(ModelEvaluationError) as exc:
        simulate(m, PopulationState.from_dict({2: 1}), 1, 1.0, 0)
    assert exc.value.kind == "delta" and exc.value.load == 2


def test_misdeclared_envelope_is_detected():
    # halving the declared Lipschitz envelope must show up as ratio > 1
    lam = 1.0
    m = luchsinger_nonlinear(lam, 1.0, 1.0, OffspringLaw.poisson(0.8))
    corrupt = type(m.interaction.envelopes)(
        a01=lambda z: lam / 2.0,
        a11=m.interaction.envelopes.a11,
    )
    import dataclasses
    bad = dataclasses.replace(m.interaction, envelopes=corrupt)
    rep = check_lipschitz_sampled(ModelSpec("bad", m.baseline, bad),
                                  LipschitzSampleConfig(n_pairs=100, seed=5))
    assert not rep.ok
    assert rep.ratios["alpha-lipschitz-l1"] > 1.0
