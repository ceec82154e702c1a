import dataclasses
import math

import numpy as np
import pytest

from coupling_ref import V, X, X_tilde, compensator_intensity
from parasitelab import OffspringLaw, kretzschmar_modified, luchsinger_linear, \
    luchsinger_nonlinear
from parasitelab.coupling import (_ROW_MARGIN, CoupledCapExceeded, CouplingState, _intensity,
                                  _pair_outcome, martingale_balance_check, simulate_coupled)
from parasitelab.harness import round_initial
from parasitelab.ode import integrate
from parasitelab.rates import BaselineGenerator, Envelopes, InteractionSpec, \
    ModelSpec
from parasitelab.ssa import simulate
from parasitelab.state import PopulationState
from parasitelab.tilde import DEATH, IMMIGRATION, MOVE, DominatingRateError, TildeRates


def constant_alpha_model(c: float = 0.5) -> ModelSpec:
    # state-independent interaction: every host climbs one load at rate c
    inter = InteractionSpec(
        alpha_total=lambda i, x: c,
        alpha_sample=lambda i, x, rng: i + 1,
        alpha_pointwise=lambda i, l, x: c if l == i + 1 else 0.0,
        beta_total=lambda x: 0.0, beta_sample=None,
        beta_pointwise=lambda i, x: 0.0,
        delta=lambda i, x: 0.0,
        envelopes=Envelopes(a00=c, a10=2 * c),
        delta_zero=True, beta_zero=True,
    )

    def moves(i):
        return ((i - 1, float(i)),) if i >= 1 else ()

    return ModelSpec("ladder", BaselineGenerator(moves, lambda i: 0.0, 2.0, 1.0),
                     inter)


def test_constant_rates_never_decouple():
    # identical rate evaluations on both sides: every surplus rate is zero
    m = constant_alpha_model(0.5)
    x0 = np.array([0.7, 0.3])
    sol = integrate(m, x0, 1.0, J=20)
    xi0 = PopulationState.from_dict({0: 7, 1: 3})
    for seed in range(100):
        run = simulate_coupled(m, xi0, 10, 1.0, sol, seed)
        assert run.V_T == 0
        assert run.final.Z2.total_hosts == 0
        assert run.final.Z3.total_hosts == 0
        assert run.final.Z4 == 0
        # X and X~ coincide pathwise
        assert X(run.final) == X_tilde(run.final)
        assert run.sup_err_X == pytest.approx(run.sup_err_tilde)


def test_baseline_only_stays_coupled(model61):
    # an all-healthy population has no interaction events at all
    sol = integrate(model61, np.array([1.0]), 1.0, J=54)
    xi0 = PopulationState.from_dict({0: 30})
    run = simulate_coupled(model61, xi0, 30, 1.0, sol, 1)
    assert run.V_T == 0 and run.n_events == 0
    assert X(run.final) == xi0


def test_coupling_state_views():
    s = CouplingState(PopulationState.from_dict({0: 2, 1: 1}),
                      PopulationState.from_dict({2: 1}),
                      PopulationState.from_dict({0: 1}), 3)
    assert X(s).to_dense(3).tolist() == [2, 1, 1]
    assert X_tilde(s).to_dense(2).tolist() == [3, 1]
    assert V(s) == 4


def test_compensator_zero_when_matched(model61):
    # empirical density equal to the trajectory value: every difference vanishes
    sol = integrate(model61, np.array([1.0]), 1.0, J=10)
    s = CouplingState(PopulationState.from_dict({0: 50}),
                      PopulationState.empty(), PopulationState.empty(), 0)
    assert compensator_intensity(model61, s, 0.5, 50, sol, 40) == pytest.approx(0.0)


def test_compensator_constant_rates_zero():
    m = constant_alpha_model(0.4)
    sol = integrate(m, np.array([0.6, 0.4]), 1.0, J=20)
    s = CouplingState(PopulationState.from_dict({0: 3, 2: 2}),
                      PopulationState.empty(), PopulationState.empty(), 0)
    assert compensator_intensity(m, s, 0.3, 5, sol, 40) == pytest.approx(0.0, abs=1e-12)


def test_compensator_matches_rate_mismatch(model61, sol61_T1):
    # hand evaluation: only healthy hosts interact, so the intensity is
    # z1[0] * sum_l |alpha_{0l}(x) - alpha_{0l}(y)|
    s = CouplingState(PopulationState.from_dict({0: 80, 1: 20}),
                      PopulationState.empty(), PopulationState.empty(), 0)
    t = 0.5
    x = X(s).to_dense(55).astype(float) / 100
    y = np.zeros(55)
    y[: sol61_T1.density(t).size] = sol61_T1.density(t)
    row_x = model61.interaction.alpha_row_at(0, x, 200)
    row_y = model61.interaction.alpha_row_at(0, y, 200)
    expected = 80 * float(np.abs(row_x - row_y).sum())
    val = compensator_intensity(model61, s, t, 100, sol61_T1, 200 - sol61_T1.J)
    assert val == pytest.approx(expected, rel=1e-6)


class _StubRates:
    # pointwise rates A[l] at a density whose first entry is 0 (the X side)
    # and B[l] at one whose first entry is 1 (the X~ side), and targets
    # uniform on 0..2; a death at load l has rates A[l] and B[l]
    A, B = (1.0, 3.0, 2.0), (2.5, 1.0, 2.0)

    def _at(self, l, z):
        return (self.A, self.B)[int(z[0])][l]

    def alpha_sample(self, i, z, rng):
        return int(rng.integers(3))

    def beta_sample(self, z, rng):
        return int(rng.integers(3))

    def alpha_pointwise_at(self, i, l, z):
        return self._at(l, z)

    def beta_pointwise_at(self, l, z):
        return self._at(l, z)

    def delta_at(self, i, z):
        return self._at(i, z)


def test_pair_outcome_law():
    # at a target with rates a (X side) and b (X~ side), an X-side proposal
    # is matched with frequency min(a, b)/a, else a surplus, and an X~-side
    # proposal is a surplus with frequency (b - a)+/b, else a ghost.  The
    # stub's frequencies are 1/3 and 0.6 at one target and 0 or 1 at the
    # others, which must then hold exactly.  Six comparisons at 4 SE: a
    # false alarm once in about 2,600 seeds under the normal approximation
    # (the seed is fixed)
    stub, rng = _StubRates(), np.random.default_rng(2024)
    x_side, y_side = np.zeros(1), np.ones(1)
    for kind in (MOVE, IMMIGRATION, DEATH):
        for from_y, (hit, miss) in ((False, ("matched", "surplus")), (True, ("surplus", None))):
            trials, hits = np.zeros(3), np.zeros(3)
            for n in range(3000):
                i = n % 3
                l, outcome = _pair_outcome(stub, kind, from_y, i, x_side, y_side,
                                           stub.A[i], rng)
                assert outcome in (hit, miss)
                if kind == DEATH:
                    assert l is None
                    l = i
                trials[l] += 1
                hits[l] += outcome == hit
            a, b = np.array(stub.A), np.array(stub.B)
            p = np.maximum(b - a, 0.0) / b if from_y else np.minimum(a, b) / a
            se = np.sqrt(p * (1 - p) / trials)
            assert np.all(np.abs(hits / trials - p) <= 4 * se), (kind, from_y, hits, trials)


def test_marginal_means_match_plain_ssa(model61, xi0_100, sol61_T1):
    # the X-marginal of the coupled construction is the plain process
    N, T, runs = 100, 1.0, 400
    acc_coupled = np.zeros(60)
    acc_plain = np.zeros(60)
    for s in range(runs):
        run = simulate_coupled(model61, xi0_100, N, T, sol61_T1, 1000 + s)
        x_final = X(run.final)
        acc_coupled[: x_final.max_load + 1] += x_final.to_dense()
        p = simulate(model61, xi0_100, N, T, 5000 + s)
        acc_plain[: p.final.max_load + 1] += p.final.to_dense()
    for j in range(8):
        a, b = acc_coupled[j] / runs, acc_plain[j] / runs
        se = math.sqrt(max(a, b, 1.0) / runs)
        assert abs(a - b) <= 4 * se, (j, a, b)


def test_v_bounds_discrepancy_and_is_nondecreasing(model61, xi0_100, sol61_T1):
    for seed in range(30):
        run = simulate_coupled(model61, xi0_100, 100, 1.0, sol61_T1, seed,
                               record_trajectory=True)
        final = run.final
        x, x_tilde = X(final), X_tilde(final)
        n = max(x.max_load, x_tilde.max_load) + 1
        gap = int(np.abs(x.to_dense(n) - x_tilde.to_dense(n)).sum())
        assert gap <= 2 * run.V_T
        if run.V_traj.size:
            assert np.all(np.diff(run.V_traj) >= 0)
            assert run.V_traj[-1] == run.V_T


def test_martingale_balance(model61, xi0_100, sol61_T1):
    runs = [simulate_coupled(model61, xi0_100, 100, 1.0, sol61_T1, s,
                             eval_times=[0.5, 1.0])
            for s in range(250)]
    rep = martingale_balance_check(runs)
    assert rep.replicas == 250
    assert np.all(np.abs(rep.mean) <= 3.5 * rep.std_err + 1e-9)


def test_compensator_bound_holds_pre_tau(model61, xi0_100, sol61_T1):
    worst = 0.0
    checked = 0
    for s in range(60):
        run = simulate_coupled(model61, xi0_100, 100, 1.0, sol61_T1, 300 + s)
        worst = max(worst, run.compensator_bound_ratio)
        checked += run.compensator_bound_checked
    assert checked > 0
    assert worst <= 1.0 + 1e-9


def test_immigration_and_death_surpluses(model62):
    # the linear model exercises the immigration branches of the table
    x0 = np.array([0.0, 0.9, 0.1])
    sol = integrate(model62, x0, 1.0, J=54)
    xi0 = PopulationState.from_dict({1: 45, 2: 5})
    vs = []
    for s in range(40):
        run = simulate_coupled(model62, xi0, 50, 1.0, sol, s)
        vs.append(run.V_T)
    assert max(vs) > 0   # some decoupling must occur at this size


def test_eval_times_stop_at_tau(model61):
    # a deliberately mismatched trajectory forces tau quickly
    sol = integrate(model61, np.array([0.2, 0.8]), 1.0, J=54)
    xi0 = PopulationState.from_dict({0: 50})   # far from the trajectory
    run = simulate_coupled(model61, xi0, 50, 1.0, sol, 0, eval_times=[0.5, 1.0])
    assert run.tau_N is not None and run.tau_N <= 0.5
    assert run.V_at[0] == run.V_at[1]
    assert run.A_at[0] == run.A_at[1]


def _pieces(model, xi0, N, T, sol, seed):
    # the quadrature pieces of a tau-free run: the intervals between real
    # events, split at the solver nodes, each with the state held on it.
    # That state is the final state of the same seed's run stopped inside
    # the interval (the draws up to a horizon do not depend on it), so it
    # is read independently of the engine's quadrature.
    run = simulate_coupled(model, xi0, N, T, sol, seed, record_trajectory=True)
    assert run.tau_N is None and run.n_events > 0
    bounds = np.concatenate([[0.0], run.times, [T]])
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b <= a:
            continue
        state = simulate_coupled(model, xi0, N, 0.5 * (a + b), sol, seed).final
        cuts = np.concatenate([[a], sol.ts[(sol.ts > a) & (sol.ts < b)], [b]])
        for c, d in zip(cuts[:-1], cuts[1:]):
            yield state, float(c), float(d)


def _simpson(f, a: float, b: float, panels: int) -> float:
    u = np.linspace(a, b, 2 * panels + 1)
    w = np.ones(u.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (6 * panels) * float(np.dot(w, [f(float(s)) for s in u]))


COMPENSATOR_CASES = {
    "kretzschmar_modified": (
        lambda: kretzschmar_modified(1.5, OffspringLaw.poisson(0.6), 1.0, 0.3, 0.2,
                                     beta_birth=0.5, birth_discount=0.9, c=1.0),
        [0.5, 0.3, 0.2], 20, 0.5),
    "luchsinger_linear": (
        lambda: luchsinger_linear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
        [0.0, 0.9, 0.1], 20, 0.5),
    "luchsinger_nonlinear": (
        lambda: luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
        [0.9, 0.1], 30, 1.0),
}


@pytest.mark.parametrize("name", sorted(COMPENSATOR_CASES))
def test_compensator_integral_matches_independent_reference(name):
    # A_T against compensator_intensity under each piece's pre-event state:
    # one Simpson panel per piece is the engine's rule, so it agrees to
    # rounding; 16 panels per piece bound the quadrature error.  Over
    # seeds 0-29 of the first two cases the fine gap was at most 6e-4 and
    # 2.3e-3.  A piece closed after its event has changed z1 breaks the
    # one-panel agreement on the kretzschmar_modified and
    # luchsinger_nonlinear cases (the luchsinger_linear intensity reads
    # only X); closed after X is refreshed too, it breaks all three.
    make, x0, N, T = COMPENSATOR_CASES[name]
    model = make()
    xi0 = round_initial(np.array(x0), N)
    sol = integrate(model, xi0.to_dense() / N, T, J=54)
    for seed in range(4):
        A_T = simulate_coupled(model, xi0, N, T, sol, seed, eval_times=[T]).A_at[-1]
        one_panel = fine = 0.0
        for state, c, d in _pieces(model, xi0, N, T, sol, seed):
            def f(t):
                return compensator_intensity(model, state, t, N, sol, _ROW_MARGIN)
            one_panel += _simpson(f, c, d, 1)
            fine += _simpson(f, c, d, 16)
        assert A_T == pytest.approx(one_panel, rel=1e-12, abs=1e-12), seed
        assert abs(A_T - fine) <= 5e-3, (seed, A_T, fine)


def test_shared_rates_change_no_path(model61, model62, xi0_100, sol61_T1, sol61):
    # one TildeRates across replicas gives each run's own-rates outcome;
    # the rates of another model or limit solution are refused
    shared = TildeRates(model61, sol61_T1, 100)
    for seed in range(5):
        own = simulate_coupled(model61, xi0_100, 100, 1.0, sol61_T1, seed,
                               eval_times=[1.0], record_trajectory=True)
        run = simulate_coupled(model61, xi0_100, 100, 1.0, sol61_T1, seed,
                               eval_times=[1.0], record_trajectory=True, rates=shared)
        for f in dataclasses.fields(run):
            assert np.array_equal(getattr(run, f.name), getattr(own, f.name)), f.name
    for foreign in (TildeRates(model62, sol61_T1, 100), TildeRates(model61, sol61, 100)):
        with pytest.raises(ValueError):
            simulate_coupled(model61, xi0_100, 100, 1.0, sol61_T1, 0, rates=foreign)


def test_coupled_event_cap_is_typed(model61, xi0_100, sol61_T1):
    with pytest.raises(CoupledCapExceeded) as exc:
        simulate_coupled(model61, xi0_100, 100, 1.0, sol61_T1, 3, event_cap=4)
    err = exc.value
    assert isinstance(err, RuntimeError)
    assert err.event_cap == 4
    assert err.n_events + err.n_ghosts == 4
    assert 0.0 < err.t <= 1.0
    assert "event cap 4" in str(err)


def test_memoized_intensity_matches_reference(model62):
    # the engine's intensity, reusing its X-side rows across times, equals
    # the unmemoized reference bit for bit
    N = 50
    sol = integrate(model62, np.array([0.0, 0.9, 0.1]), 1.0, J=54)
    run = simulate_coupled(model62, PopulationState.from_dict({1: 45, 2: 5}), N, 1.0, sol, 3)
    state = run.final
    assert state.Z1.total_hosts
    x_state = X(state)
    width = max(x_state.max_load + 1, sol.J + 1)
    x = x_state.to_dense(width) / N
    rows: dict = {}
    for t in (0.0, 0.5, 1.0):
        y = np.zeros(width)
        y[: sol.J + 1] = sol.density(t)
        memo = _intensity(model62, state.Z1.to_dense(width), x, y, N, width - 1 + _ROW_MARGIN,
                          rows)
        assert memo > 0.0 and memo == compensator_intensity(model62, state, t, N, sol,
                                                            _ROW_MARGIN)
    assert rows


def test_coupled_thinning_soundness_fault_injection(model61, xi0_100, sol61_T1):
    # a deflated envelope puts the frozen interaction rate above its
    # dominator: the coupling's thinning must raise, not accept
    corrupt_env = Envelopes(a01=lambda z: 0.01, a11=model61.interaction.envelopes.a11)
    bad = ModelSpec(model61.name, model61.baseline,
                    dataclasses.replace(model61.interaction, envelopes=corrupt_env))
    with pytest.raises(DominatingRateError):
        for s in range(50):
            simulate_coupled(bad, xi0_100, 100, 1.0, sol61_T1, s)


def test_coupled_local_bound_fault_injection():
    # a01(0) is right, so the global dominator holds, but a01(z) = 0 for
    # z > 0 leaves the segment bound at rate(y_k), which the rising
    # infection rate passes inside a segment: the squeeze must raise
    x0 = np.array([0.95, 0.05])
    model = luchsinger_nonlinear(3.0, 1.0, 1.0, OffspringLaw.poisson(1.0))
    env = dataclasses.replace(model.interaction.envelopes,
                              a01=lambda z: 3.0 if z == 0.0 else 0.0)
    bad = ModelSpec(model.name, model.baseline,
                    dataclasses.replace(model.interaction, envelopes=env))
    sol = integrate(model, x0, 1.0, J=54)
    xi0 = round_initial(x0, 100)
    with pytest.raises(DominatingRateError):
        for s in range(50):
            simulate_coupled(bad, xi0, 100, 1.0, sol, s)
