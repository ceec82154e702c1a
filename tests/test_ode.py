import dataclasses
import math

import numpy as np
import pytest

from conftest import STANDARD_X0, empty_interaction, pure_death_model
from parasitelab import OffspringLaw, kretzschmar_modified, luchsinger_linear, \
    luchsinger_nonlinear
from parasitelab.ode import (BlowUpError, TruncationTooLarge, drift, integrate,
                             mild_residual, semigroup_apply)
from parasitelab.rates import BaselineGenerator, Envelopes, InteractionSpec, \
    ModelSpec
from parasitelab.state import l1_norm, l11_norm


def test_drift_zero_state(model61):
    assert np.allclose(drift(model61, np.zeros(5), 4), 0.0)


def test_drift_pure_death():
    pd = pure_death_model(mu=1.0)
    d = drift(pd, np.array([0.0, 1.0, 0.0]), 2)
    assert np.allclose(d, [1.0, -1.0, 0.0])


def test_drift_conserves_hosts(model61):
    # mass-preserving moves, no births or deaths: columns sum to zero
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = np.abs(rng.normal(size=12)) * (rng.random(12) < 0.6)
        d = drift(model61, x, 60)
        assert abs(d.sum()) < 1e-12 * max(1.0, l11_norm(x))


def test_drift_applies_positive_part(model61):
    x = np.array([0.9, -0.05, 0.1])
    assert np.allclose(drift(model61, x, 10),
                       drift(model61, np.maximum(x, 0.0), 10))


def test_integrate_pure_death_closed_form():
    sol = integrate(pure_death_model(1.0), np.array([0.0, 1.0]), 1.0, J=3)
    assert abs(sol.density(1.0)[1] - math.exp(-1.0)) <= 1e-6
    assert abs(sol.density(0.5)[0] - (1.0 - math.exp(-0.5))) <= 1e-6


def test_integrate_zero_drift_constant():
    m = ModelSpec("still", BaselineGenerator(lambda i: (), lambda i: 0.0, 1.0, 1.0),
                  empty_interaction())
    x0 = np.array([0.3, 0.2, 0.5])
    sol = integrate(m, x0, 2.0, J=2)
    assert np.allclose(sol.density(1.3), x0)
    assert sol.M_T == pytest.approx(l11_norm(x0))
    assert sol.G_T == pytest.approx(1.0)


def test_integrate_self_convergence(model61):
    # reference run at 10x tighter tolerances agrees within 10x the budget
    sol = integrate(model61, STANDARD_X0, 2.0, J=54, rtol=1e-6, atol=1e-8)
    ref = integrate(model61, STANDARD_X0, 2.0, J=54, rtol=1e-7, atol=1e-9)
    worst = max(float(np.abs(sol.density(t) - ref.density(t)).sum())
                for t in np.linspace(0.0, 2.0, 41))
    assert worst <= 10 * 1e-6


def test_integrate_host_conservation(sol61):
    tol = 10 * (sol61.rtol + sol61.atol)
    mass0 = float(sol61.density(0.0).sum())
    for t in np.linspace(0.0, 2.0, 21):
        assert abs(float(sol61.density(t).sum()) - mass0) <= tol


def test_integrate_nonnegativity(sol61):
    floor = -10 * (sol61.rtol + sol61.atol)
    for t in np.linspace(0.0, 2.0, 50):
        assert sol61.density(float(t)).min() >= floor


def test_truncation_convergence(model61):
    # tight solver tolerances so the comparison isolates the truncation loss
    sol = integrate(model61, STANDARD_X0, 2.0, J=54, rtol=1e-9, atol=1e-11)
    sol2 = integrate(model61, STANDARD_X0, 2.0, J=108, rtol=1e-9, atol=1e-11)
    grid = np.linspace(0.0, 2.0, 21)
    sup1 = max(l1_norm(sol.density(t)) for t in grid)
    sup2 = max(l1_norm(sol2.density(t)) for t in grid)
    assert abs(sup1 - sup2) < 1e-8
    worst = max(float(np.abs(np.pad(sol.density(t), (0, 54)) - sol2.density(t)).sum())
                for t in grid)
    assert worst < 1e-7
    assert sol.tail_ok and sol2.tail_ok


def test_dense_output_exact_at_nodes(sol61):
    assert sol61.ts[0] == 0.0 and sol61.ts[-1] == sol61.T
    assert np.all(np.diff(sol61.ts) > 0)
    for k in (0, sol61.ts.size // 2, sol61.ts.size - 1):
        t = float(sol61.ts[k])
        assert np.array_equal(sol61.density(t), sol61.ys[k])


def test_m_t_g_t_ordering(sol61):
    assert sol61.M_T >= sol61.G_T >= 1.0 - 1e-9
    assert sol61.M_T == pytest.approx(1.1)  # attained at t = 0 here


def _dense_sup_norms(sol, points: int = 20001) -> tuple[float, float]:
    ys = np.abs(sol.density_many(np.linspace(sol.ts[0], sol.ts[-1], points)))
    return float(ys.sum(axis=1).max()), float((ys @ np.arange(1, sol.J + 2)).max())


HULL_MODELS = {
    "luchsinger_nonlinear": (
        lambda: luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
        [0.9, 0.1], 2.0),
    "luchsinger_linear": (
        lambda: luchsinger_linear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
        [0.0, 0.9, 0.1], 2.0),
    "kretzschmar_modified": (
        lambda: kretzschmar_modified(1.5, OffspringLaw.poisson(0.6), 1.0, 0.3, 0.2,
                                     beta_birth=0.5, birth_discount=0.9, c=1.0),
        [0.5, 0.3, 0.2], 3.0),
}


@pytest.mark.parametrize("name", sorted(HULL_MODELS))
def test_g_t_m_t_bound_the_dense_output(name):
    # a coarse tolerance gives long segments with large excursions; the
    # Bezier hull must hold the dense output everywhere, to rounding
    make, x0, T = HULL_MODELS[name]
    sol = integrate(make(), np.array(x0), T, rtol=0.5)
    g, m = _dense_sup_norms(sol)
    assert g <= sol.G_T * (1.0 + 1e-12)
    assert m <= sol.M_T * (1.0 + 1e-12)


def test_g_t_holds_where_the_dense_output_overshoots_its_samples():
    # point-mass offspring, counts {1: 4, 3: 42} of N = 46: the host norm
    # peaks between the 8 equally spaced dense-output points per segment
    # that G_T used to be the maximum over, 5.5e-7 above all of them
    model = luchsinger_linear(1.0, 2.5, 0.3, OffspringLaw.point_mass(1))
    sol = integrate(model, np.array([0.0, 4.0, 0.0, 42.0]) / 46, 0.65)
    sampled = np.concatenate([np.linspace(sol.ts[k], sol.ts[k + 1], 9)[:-1]
                              for k in range(sol.ts.size - 1)] + [sol.ts[-1:]])
    g_sampled = float(np.abs(sol.density_many(sampled)).sum(axis=1).max())
    g_dense, _ = _dense_sup_norms(sol)
    assert g_sampled < g_dense <= sol.G_T


def test_blow_up_detection():
    # explosive immigration: beta grows with the host mass
    def beta_total(x):
        return 5.0 * (1.0 + x.sum())

    inter = InteractionSpec(
        alpha_total=lambda i, x: 0.0, alpha_sample=None,
        alpha_pointwise=lambda i, l, x: 0.0,
        beta_total=beta_total, beta_sample=lambda x, rng: 0,
        beta_pointwise=lambda i, x: beta_total(x) if i == 0 else 0.0,
        delta=lambda i, x: 0.0,
        envelopes=Envelopes(b10=5.0, b01=lambda z: 5.0, b11=lambda z: 5.0),
        alpha_loads=frozenset(), delta_zero=True,
    )
    m = ModelSpec("boom", BaselineGenerator(lambda i: (), lambda i: 0.0, 1.0, 1.0), inter)
    with pytest.raises(BlowUpError) as exc:
        integrate(m, np.array([1.0]), 10.0, J=3, blowup_cap=10.0)
    partial = exc.value.solution
    assert partial.blow_up and partial.blow_up_time < 10.0
    assert l11_norm(partial.density(partial.t_end)) <= 10.0 * 1.01


def test_semigroup_identity_and_closed_form():
    pd = pure_death_model(1.0)
    x = np.array([0.0, 1.0])
    assert np.allclose(semigroup_apply(pd.baseline, x, 0.0, 1), x)
    v = semigroup_apply(pd.baseline, x, 1.0, 1)
    assert v[0] == pytest.approx(1.0 - math.exp(-1.0))
    assert v[1] == pytest.approx(math.exp(-1.0))


def test_semigroup_l11_bound(model61, model62):
    rng = np.random.default_rng(5)
    for m in (model61, model62):
        w = m.baseline.w
        for t in (0.1, 1.0, 2.0):
            for _ in range(5):
                x = np.abs(rng.normal(size=201)) * (rng.random(201) < 0.1)
                lhs = l11_norm(semigroup_apply(m.baseline, x, t, 200))
                assert lhs <= math.exp(w * t) * l11_norm(x) * (1 + 1e-9)
    with pytest.raises(TruncationTooLarge):
        semigroup_apply(model61.baseline, np.ones(500), 1.0, 499)


def test_semigroup_row_stochasticity_deficit():
    from scipy.linalg import expm

    def make(dbar):
        def moves(i):
            return ((i - 1, float(i)),) if i >= 1 else ()
        return BaselineGenerator(moves, lambda i: dbar, m1=2.0, m2=1.0)

    for t in (0.2, 1.0):
        P0 = expm(make(0.0).matrix(6) * t)
        P1 = expm(make(0.5).matrix(6) * t)
        for P in (P0, P1):
            assert np.all(P >= -1e-12)
            assert np.all(P.sum(axis=1) <= 1.0 + 1e-9)
        # more death, more mass lost to the cemetery
        assert np.all(P1.sum(axis=1) <= P0.sum(axis=1) + 1e-9)


def test_mild_residual_examples(model61, sol61):
    assert mild_residual(sol61, 0.0) == 0.0
    pd_sol = integrate(pure_death_model(1.0), np.array([0.0, 1.0]), 1.0, J=3)
    assert mild_residual(pd_sol, 1.0) <= 1e-6
    assert mild_residual(sol61, 2.0, n_quad=128) <= 1e-4


def test_mild_residual_linear_model():
    # constant immigration only: both routes are exactly computable
    inter = InteractionSpec(
        alpha_total=lambda i, x: 0.0, alpha_sample=None,
        alpha_pointwise=lambda i, l, x: 0.0,
        beta_total=lambda x: 0.3, beta_sample=lambda x, rng: 1,
        beta_pointwise=lambda i, x: 0.3 if i == 1 else 0.0,
        delta=lambda i, x: 0.0,
        envelopes=Envelopes(b10=0.6),
        alpha_loads=frozenset(), delta_zero=True,
    )
    m = ModelSpec("const-imm", pure_death_model(1.0).baseline, inter)
    sol = integrate(m, np.array([0.5, 0.5]), 1.5, J=3)
    assert mild_residual(sol, 1.5, n_quad=128) <= 1e-6


def test_m_t_stable_under_initial_perturbation(model61):
    # sup-norm statistics move continuously with the initial condition
    base = integrate(model61, STANDARD_X0, 2.0, J=54)
    eps = 1e-3
    pert = integrate(model61, np.array([0.9 + eps, 0.1]), 2.0, J=54)
    assert abs(base.M_T - pert.M_T) <= 5.0 * eps


def test_solution_csv_round_trip(tmp_path, sol61):
    p = tmp_path / "sol.csv"
    sol61.write_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("# model=luchsinger_nonlinear")
    assert lines[1].split(",")[:2] == ["time", "x0"]
    assert len(lines) == 2 + sol61.ts.size
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.9)


def _scalar_rows(sol, ts):
    return np.stack([sol.density(float(t)) for t in ts])


def test_density_many_matches_scalar_bit_for_bit(model61, sol61):
    rng = np.random.default_rng(17)
    ts = np.concatenate([sol61.ts, [-1.0, -1e-300, 0.0, 2.0, 2.0 + 1e-12, 7.5],
                         rng.uniform(0.0, 2.0, size=500)])
    many = sol61.density_many(ts)
    assert many.shape == (ts.size, sol61.J + 1)
    assert np.array_equal(many, _scalar_rows(sol61, ts))
    # a short horizon: few nodes and a small truncation
    small = integrate(model61, STANDARD_X0, 0.3, J=5)
    ts = np.concatenate([small.ts, rng.uniform(-0.1, 0.4, size=200)])
    assert np.array_equal(small.density_many(ts), _scalar_rows(small, ts))
    assert small.density_many([]).shape == (0, 6)


def test_density_many_one_node_solution(model61):
    sol = integrate(model61, STANDARD_X0, 0.0, J=7)
    assert sol.ts.size == 1
    ts = np.array([-2.0, 0.0, 1e-9, 3.0])
    many = sol.density_many(ts)
    assert many.shape == (4, 8)
    assert np.array_equal(many, _scalar_rows(sol, ts))


def _clipped_segments(sol, t):
    # the segment search density_many used before OdeSolution.segments
    return np.clip(np.searchsorted(sol.ts, t, side="right") - 1, 0, sol.ts.size - 2)


def test_segments_match_the_clipped_search(sol61):
    rng = np.random.default_rng(5)
    two_nodes = dataclasses.replace(sol61, ts=sol61.ts[[0, -1]], ys=sol61.ys[[0, -1]],
                                    fs=sol61.fs[[0, -1]])
    for sol in (sol61, two_nodes):
        ts = np.concatenate([sol.ts, rng.uniform(0.0, sol.T, size=500),
                             [-3.0, -1e-300, sol.T + 1e-12, 9.0, np.nan, -np.inf, np.inf]])
        assert np.array_equal(sol.segments(ts), _clipped_segments(sol, ts))
        for t in ts:
            assert sol.segments(float(t)) == _clipped_segments(sol, float(t))
    assert not two_nodes.segments(ts).any()
