"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is fixed here, not configurable.
"""

import math

import numpy as np

from conftest import STANDARD_X0
from coupling_ref import X, X_tilde
from oracle import enumerate_chain, transient_moments
from parasitelab import OffspringLaw, kretzschmar_modified, luchsinger_linear, \
    luchsinger_nonlinear
from parasitelab.coupling import martingale_balance_check, simulate_coupled
from parasitelab.harness import ExperimentConfig, round_initial, run_convergence
from parasitelab.ode import integrate, semigroup_apply
from parasitelab.rates import (BaselineGenerator, Envelopes, InteractionSpec,
                               ModelSpec, semigroup_moment)
from parasitelab.ssa import simulate
from parasitelab.state import BoundM, PopulationState, l11_norm, lemma_a1_sides
from parasitelab.tilde import concentration_check, mean_identity_check, \
    moment_bound_check


def report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def constant_rate_model() -> ModelSpec:
    # every interaction evaluator is constant in the density
    ca, cb, cd = 0.5, 0.3, 0.2
    inter = InteractionSpec(
        alpha_total=lambda i, x: ca,
        alpha_sample=lambda i, x, rng: i + 1,
        alpha_pointwise=lambda i, l, x: ca if l == i + 1 else 0.0,
        beta_total=lambda x: cb,
        beta_sample=lambda x, rng: 0,
        beta_pointwise=lambda i, x: cb if i == 0 else 0.0,
        delta=lambda i, x: cd,
        envelopes=Envelopes(a00=ca, a10=2 * ca, b10=cb, d0=cd),
    )

    def moves(i):
        return ((i - 1, float(i)),) if i >= 1 else ()

    return ModelSpec("const-rates",
                     BaselineGenerator(moves, lambda i: 0.0, 2.0, 1.0), inter)


def test_criterion_01_coupling_exact_in_trivial_regime():
    m = constant_rate_model()
    x0 = np.array([0.7, 0.3])
    sol = integrate(m, x0, 1.0, J=30)
    xi0 = PopulationState.from_dict({0: 7, 1: 3})
    ok = True
    for seed in range(100):
        run = simulate_coupled(m, xi0, 10, 1.0, sol, seed)
        ok &= run.V_T == 0
        ok &= run.final.Z2.total_hosts == 0 and run.final.Z3.total_hosts == 0
        ok &= run.final.Z4 == 0 and X(run.final) == X_tilde(run.final)
    report(1, ok, "state-independent rates: V_N = 0 and X = X~ on 100 paths")


def test_criterion_02_coupling_invariants_battery():
    # the pairing inequalities are asserted inline after every event; any
    # breach raises CouplingInvariantError and fails this test
    total = 0
    m61 = luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8))
    sol61 = integrate(m61, STANDARD_X0, 1.0, J=54)
    xi61 = PopulationState.from_dict({0: 90, 1: 10})
    for s in range(450):
        simulate_coupled(m61, xi61, 100, 1.0, sol61, s)
        total += 1

    m62 = luchsinger_linear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8))
    x62 = np.array([0.0, 0.9, 0.1])
    sol62 = integrate(m62, x62, 1.0, J=54)
    xi62 = PopulationState.from_dict({1: 45, 2: 5})
    for s in range(400):
        simulate_coupled(m62, xi62, 50, 1.0, sol62, s)
        total += 1

    mk = kretzschmar_modified(1.5, OffspringLaw.poisson(0.6), 1.0, 0.3, 0.2,
                              beta_birth=0.5, birth_discount=0.9, c=1.0)
    xk = np.array([0.5, 0.3, 0.2])
    solk = integrate(mk, xk, 1.0, J=54)
    xik = PopulationState.from_dict({0: 20, 1: 12, 2: 8})
    for s in range(200):
        simulate_coupled(mk, xik, 40, 1.0, solk, s)
        total += 1
    report(2, total >= 1000,
           f"pairing inequalities asserted after every event across {total} coupled runs")


def test_criterion_03_host_conservation(model61, sol61, xi0_100):
    ok = True
    path = simulate(model61, xi0_100, 100, 2.0, 2024)
    ok &= bool(np.all(path.counts_at(np.linspace(0.0, 2.0, 17)).sum(axis=1) == 100))
    ok &= path.final.total_hosts == 100
    tol = 10 * (sol61.rtol + sol61.atol)
    mass0 = float(sol61.density(0.0).sum())
    for t in np.linspace(0.0, 2.0, 21):
        ok &= abs(float(sol61.density(float(t)).sum()) - mass0) <= tol
    report(3, ok, "SSA keeps exactly N hosts; ODE mass constant within 10x tolerance")


def test_criterion_04_oracle_equivalence(model_tiny):
    # point-mass transmission never pushes loads above the initial maximum,
    # so starting one host at load 3 makes the cap-3 state space live
    N, T, runs = 3, 1.0, 10_000
    xi0 = PopulationState.from_dict({0: 2, 3: 1})
    chain = enumerate_chain(model_tiny, xi0, N, 3)
    mom = transient_moments(chain, T)
    acc = np.zeros(4)
    for s in range(runs):
        acc += simulate(model_tiny, xi0, N, T, s).counts_at([T], 4)[0]
    emp = acc / runs
    ok = True
    for j in range(4):
        se = max(math.sqrt(mom.variances[j] / runs), 1e-12)
        ok &= abs(emp[j] - mom.means[j]) <= 3 * se
    report(4, ok, f"SSA marginal means match the matrix exponential within 3 SE "
                  f"({runs} replicas, {chain.n_states} states)")


def test_criterion_05_ode_closed_form():
    def moves(i):
        return ((0, 1.0),) if i == 1 else ()

    inert = InteractionSpec(
        alpha_total=lambda i, x: 0.0, alpha_sample=None,
        alpha_pointwise=lambda i, l, x: 0.0,
        beta_total=lambda x: 0.0, beta_sample=None,
        beta_pointwise=lambda i, x: 0.0, delta=lambda i, x: 0.0,
        envelopes=Envelopes(), alpha_loads=frozenset(),
        delta_zero=True, beta_zero=True)
    pd = ModelSpec("pure-death", BaselineGenerator(moves, lambda i: 0.0, 1.0, 1.0),
                   inert)
    sol = integrate(pd, np.array([0.0, 1.0]), 1.0, J=2)
    err = abs(sol.density(1.0)[1] - math.exp(-1.0))
    report(5, err <= 1e-6, f"pure-death x^1(1) off by {err:.2e} (tolerance 1e-6)")


def test_criterion_06_tilde_mean_identity(model61, sol61, xi0_100):
    rep = mean_identity_check(model61, xi0_100, 100, 2.0, sol61,
                              replicas=10_000, seed=np.random.SeedSequence(614),
                              ts=[0.5, 1.0, 2.0], max_load=11)
    report(6, rep.ok, f"per-load means match N x(t) at t in {{0.5, 1, 2}}; "
                      f"worst z = {rep.worst_z:.2f} (3 SE allowed, {rep.replicas} replicas)")


def test_criterion_07_concentration_certificate(model61):
    results = {}
    for N, reps in ((100, 300), (1000, 100)):
        xi0 = round_initial(STANDARD_X0, N)
        sol = integrate(model61, xi0.to_dense().astype(float) / N, 2.0, J=54)
        rep = concentration_check(model61, xi0, N, 2.0, sol, reps,
                                  np.random.SeedSequence([7, N]), n_grid=9)
        results[N] = rep
    ok = all(rep.ok for rep in results.values())
    ratio100 = results[100].empirical_mean.max() / results[100].bound
    ratio1000 = results[1000].empirical_mean.max() / results[1000].bound
    ok &= ratio1000 <= ratio100 + 1e-12
    report(7, ok, f"E||X~ - Nx||_1 under 3(M+1)sqrt(N log N) at N=100, 1000; "
                  f"bound ratios {ratio100:.3f} -> {ratio1000:.3f}")


def test_criterion_08_moment_bound_certificate():
    # supercritical transmission so the exponential bound has real margin
    m61 = luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(1.5))
    xi61 = PopulationState.from_dict({0: 90, 1: 10})
    sol61h = integrate(m61, STANDARD_X0, 1.0, J=54)
    rep1 = moment_bound_check(m61, xi61, 100, 1.0, sol61h, 250,
                              np.random.SeedSequence(81))

    m62 = luchsinger_linear(1.0, 1.0, 1.0, OffspringLaw.poisson(1.5))
    x62 = np.array([0.0, 0.9, 0.1])
    sol62 = integrate(m62, x62, 1.0, J=54)
    xi62 = PopulationState.from_dict({1: 90, 2: 10})
    rep2 = moment_bound_check(m62, xi62, 100, 1.0, sol62, 250,
                              np.random.SeedSequence(82))
    ok = rep1.ok and rep1.margin > 0 and rep2.ok and rep2.margin > 0
    report(8, ok, f"l11 moment under the exponential bound with margins "
                  f"{rep1.margin:.3f} (closed) and {rep2.margin:.3f} (open)")


def test_criterion_09_rate_reproduction():
    cfg = ExperimentConfig.from_dict({
        "model": {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0,
                  "kappa": 1.0, "offspring": {"family": "poisson", "mean": 0.8}},
        "initial": {"density": [0.9, 0.1]},
        "sim": {"n_list": [50, 100, 200, 400, 800, 1600], "horizon": 2.0,
                "replicas": 100, "master_seed": 42},
        "output": {"directory": "/tmp/parasitelab_acceptance"},
    })
    rep = run_convergence(cfg, write=False)
    in_band = -0.65 <= rep.slope <= -0.35
    decreasing = rep.strictly_decreasing()
    ratios = [r.ratio for r in rep.rows]
    report(9, in_band and decreasing,
           f"slope {rep.slope:.4f} in [-0.65, -0.35], means strictly decreasing; "
           f"ratio column {ratios[0]:.3f} -> {ratios[-1]:.3f}")


def test_criterion_10_lemma_a1_battery():
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(1000):
        M = float(rng.uniform(1.0, 10.0))
        N = int(rng.integers(9, 10 ** 6))
        size = int(rng.integers(1, 80))
        u = rng.uniform(0.0, 1.0, size=size)
        u[rng.random(size) < 0.3] = 0.0
        mass = float(np.dot(np.arange(1, size + 1), u))
        if mass > 0:
            u *= rng.uniform(0.0, 1.0) * M / mass
        ok &= lemma_a1_sides(u, BoundM(M, N)).all_hold
    report(10, ok, "all three tail inequalities hold on 1000 random triples")


def test_criterion_11_first_moment_certificate(model62):
    N, T, runs = 50, 1.0, 400
    xi0 = PopulationState.from_dict({1: 45, 2: 5})
    bound = N * math.exp(1.0 * T)   # b10 = 0, per-capita envelope lam = 1
    finals = [simulate(model62, xi0, N, T, np.random.SeedSequence([11, s])).final.total_hosts
              for s in range(runs)]
    mean = float(np.mean(finals))
    se = float(np.std(finals, ddof=1) / math.sqrt(runs))
    ok = mean <= bound + 3 * se
    report(11, ok, f"open-population mean final hosts {mean:.1f} <= N e^(lam T) = {bound:.1f}")


def test_criterion_12_semigroup_certificates():
    models = {
        "closed": luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
        "open": luchsinger_linear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
        "demographic": kretzschmar_modified(1.5, OffspringLaw.poisson(0.6), 1.0,
                                            0.3, 0.2, 0.5, 0.9, 1.0),
    }
    rng = np.random.default_rng(12)
    ok = True
    for name, m in models.items():
        w = m.baseline.w
        for t in (0.1, 1.0, 2.0):
            for _ in range(3):
                x = np.abs(rng.normal(size=201)) * (rng.random(201) < 0.15)
                lhs = l11_norm(semigroup_apply(m.baseline, x, t, 200))
                ok &= lhs <= math.exp(w * t) * l11_norm(x) * (1 + 1e-9)
            for i in (0, 1, 5, 20, 100):
                ok &= semigroup_moment(m.baseline, i, t, 200) <= \
                    (i + 1) * math.exp(w * t) * (1 + 1e-9)
    report(12, ok, "transposed-flow l11 bound and first-moment bound at J = 200, "
                   "t in {0.1, 1, 2}, all example baselines")


def test_criterion_13_martingale_balance(model61, sol61_T1, xi0_100):
    runs = [simulate_coupled(model61, xi0_100, 100, 1.0, sol61_T1,
                             np.random.SeedSequence([13, s]), eval_times=[1.0])
            for s in range(1000)]
    rep = martingale_balance_check(runs)
    balanced = bool(np.all(np.abs(rep.mean) <= 3.0 * rep.std_err))
    worst_ratio = max(r.compensator_bound_ratio for r in runs)
    checked = sum(r.compensator_bound_checked for r in runs)
    ok = balanced and worst_ratio <= 1.0 + 1e-9 and checked > 0
    report(13, ok, f"mean(V - int a) = {rep.mean[0]:+.4f} (3 SE = {3*rep.std_err[0]:.4f}); "
                   f"compensator bound ratio <= {worst_ratio:.3f} over {checked} quadrature points")


def test_criterion_14_deterministic_csv_bodies(tmp_path):
    raw = {
        "model": {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0,
                  "kappa": 1.0, "offspring": {"family": "poisson", "mean": 0.8}},
        "initial": {"density": [0.9, 0.1]},
        "sim": {"n_list": [20, 40], "horizon": 0.5, "replicas": 5,
                "master_seed": 99},
        "output": {"directory": ""},
    }
    bodies = []
    for run_idx, workers in ((0, 2), (1, 1)):
        raw["output"]["directory"] = str(tmp_path / f"run{run_idx}")
        cfg = ExperimentConfig.from_dict(raw)
        run_convergence(cfg, workers=workers)
        bodies.append(tuple((cfg.out_dir / f).read_bytes()
                            for f in ("convergence.csv", "replicas.csv", "slope.csv")))
    ok = bodies[0] == bodies[1]
    report(14, ok, "repeated converge runs produce byte-identical CSV bodies")
