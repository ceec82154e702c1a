import dataclasses
import math

import numpy as np
import pytest

from conftest import STANDARD_X0, pure_death_model
from parasitelab import (OffspringLaw, kretzschmar_modified, luchsinger_linear,
                         luchsinger_nonlinear, tilde)
from parasitelab.harness import round_initial
from parasitelab.ode import integrate
from parasitelab.rates import BaselineGenerator, Envelopes, EventKind, InteractionSpec, \
    ModelSpec
from parasitelab.ssa import PathRecord, _KIND_INDEX
from parasitelab.state import PopulationState, l11_norm
from parasitelab.tilde import (DEATH, IMMIGRATION, MOVE, DominatingRateError,
                               TildeRates, check_dominated, concentration_check,
                               mean_identity_check, moment_bound_check, simulate_tilde)


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


# the individual law, on one-host replicas


def test_individual_all_rates_zero():
    m = still_model()
    sol = integrate(m, np.array([1.0]), 1.0, J=1)
    xi0 = PopulationState.from_dict({3: 1})
    path = simulate_tilde(m, xi0, 10, 1.0, sol, 0)
    assert path.n_jumps == 0 and path.final == xi0


def test_individual_pure_death_frequency():
    pd = pure_death_model(1.0)
    sol = integrate(pd, np.array([0.0, 1.0]), 1.0, J=1)
    rates = TildeRates(pd, sol, 1)
    xi0 = PopulationState.from_dict({1: 1})
    runs = 5000
    jumped = sum(simulate_tilde(pd, xi0, 1, 1.0, sol, s, rates=rates).n_jumps > 0
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
    xi0 = PopulationState.from_dict({0: 1})
    runs = 5000
    survived = sum(simulate_tilde(m, xi0, 10, T, sol, s, rates=rates).final == xi0
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
    # with frozen interaction rates individuals never see each other, so
    # which draws of the replica's stream go to which host leaves the
    # aggregate law alone: two independent seed streams must give means
    # within Monte Carlo tolerance
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


# ---------------------------------------------------------------------------
# The per-individual engine, the reference law of the lockstep engine: one
# loop per individual on its own child generator, as it ran before the
# squeeze, with every candidate evaluating its frozen rate and checking it
# against the global dominator only.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class IndividualPath:
    """One individual's trajectory: jump list and survival status."""

    start_load: int
    start_time: float
    events: list = dataclasses.field(default_factory=list)
    alive: bool = True
    final_load: int = None


def _ref_alpha_total_at(rates, i, t):
    a = rates.model.interaction.alpha_total_at(i, rates.ode.density(t))
    return check_dominated("interaction-move", i, a, rates.alpha_dom_at(i), t)


def _ref_delta_at(rates, i, t):
    d = rates.model.interaction.delta_at(i, rates.ode.density(t))
    return check_dominated("interaction-death", i, d, rates.delta_dom, t)


def _ref_beta_total_at(rates, t):
    b = rates.model.interaction.beta_total_at(rates.ode.density(t))
    return check_dominated("immigration", -1, b, rates.beta_dom, t)


def ref_simulate_individual(rates, i0, t0, T, seed):
    if t0 > T:
        raise ValueError("t0 must be <= T")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    base = rates.model.baseline
    inter = rates.model.interaction
    path = IndividualPath(i0, t0)
    i = i0
    t = t0
    while True:
        astar = base.alpha_star(i)
        dbar = base.dbar(i)
        a_dom = rates.alpha_dom_at(i)
        dom = astar + dbar + a_dom + rates.delta_dom
        if dom <= 0.0:
            break
        t += rng.exponential(1.0 / dom)
        if t > T:
            break
        u = rng.random() * dom
        if u < astar:
            chosen = base.sample_exit(i, u, 0.0)
            path.events.append((t, _KIND_INDEX[EventKind.BASELINE_MOVE], i, chosen))
            i = chosen
        elif u < astar + dbar:
            path.events.append((t, _KIND_INDEX[EventKind.BASELINE_DEATH], i, -1))
            path.alive = False
            return path
        elif u < astar + dbar + a_dom:
            a = _ref_alpha_total_at(rates, i, t)
            if rng.random() * a_dom < a:
                target = int(inter.alpha_sample(i, rates.ode.density(t), rng))
                path.events.append((t, _KIND_INDEX[EventKind.INTERACTION_MOVE], i, target))
                i = target
        else:
            d = _ref_delta_at(rates, i, t)
            if rng.random() * rates.delta_dom < d:
                path.events.append((t, _KIND_INDEX[EventKind.INTERACTION_DEATH], i, -1))
                path.alive = False
                return path
    path.final_load = i
    return path


def ref_simulate_tilde(model, xi0, N, T, ode, seed, rates=None):
    # ``rates`` is accepted and ignored, so this can stand in for
    # ``tilde.simulate_tilde`` under the checks
    if ode.blow_up or ode.t_end < T - 1e-12:
        raise ValueError("the limit solution must span [0, T] without blow-up")
    rates = TildeRates(model, ode, N)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n_init = xi0.total_hosts
    children = ss.spawn(n_init + 1)

    events = []
    idx = 0
    for load, count in xi0:
        for _ in range(count):
            ind = ref_simulate_individual(rates, load, 0.0, T,
                                          np.random.default_rng(children[idx]))
            events.extend((t, idx, k, lf, lt) for t, k, lf, lt in ind.events)
            idx += 1

    imm_rng = np.random.default_rng(children[n_init])
    total_dom = N * rates.beta_dom
    t = 0.0
    while total_dom > 0.0:
        t += imm_rng.exponential(1.0 / total_dom)
        if t > T:
            break
        b = _ref_beta_total_at(rates, t)
        if imm_rng.random() * rates.beta_dom < b:
            load = int(model.interaction.beta_sample(rates.ode.density(t), imm_rng))
            events.append((t, idx, _KIND_INDEX[EventKind.IMMIGRATION], -1, load))
            ind = ref_simulate_individual(rates, load, t, T,
                                          np.random.default_rng(ss.spawn(1)[0]))
            events.extend((te, idx, k, lf, lt) for te, k, lf, lt in ind.events)
            idx += 1

    events.sort(key=lambda e: (e[0], e[1]))
    times = np.array([e[0] for e in events])
    kinds = np.array([e[2] for e in events], dtype=np.int8)
    lfrom = np.array([e[3] for e in events], dtype=np.int64)
    lto = np.array([e[4] for e in events], dtype=np.int64)

    path = PathRecord(model.name + "~", N, T, seed if isinstance(seed, int) else -1, xi0,
                      times, kinds, lfrom, lto, xi0)
    path.final = PopulationState.from_dense(path.counts_at([T])[0])
    return path


# ---------------------------------------------------------------------------
# Plain thinning on the lockstep draw order, the reference for the segment
# squeeze: a copy of ``simulate_tilde``'s rounds in which every thinned
# candidate evaluates its frozen rate and checks it against the global
# dominator only.
# ---------------------------------------------------------------------------

def _plain_accepts(rates, channels, loads, ts, vs):
    # the accepted candidates' indices, like ``TildeRates.accepts``
    accepted = np.zeros(ts.size, dtype=bool)
    for j in range(ts.size):
        c, load, t = int(channels[j]), int(loads[j]), float(ts[j])
        if c == MOVE:
            rate = _ref_alpha_total_at(rates, load, t)
        elif c == DEATH:
            rate = _ref_delta_at(rates, load, t)
        else:
            rate = _ref_beta_total_at(rates, t)
        accepted[j] = vs[j] < rate
    return accepted.nonzero()[0]


_CLASS_KINDS = (EventKind.BASELINE_MOVE, EventKind.BASELINE_DEATH,
                EventKind.INTERACTION_MOVE, EventKind.INTERACTION_DEATH)


def plain_simulate_tilde(model, xi0, N, T, ode, seed, rates=None):
    # ``rates`` is accepted and ignored, so this can stand in for
    # ``tilde.simulate_tilde`` under the checks
    rates = TildeRates(model, ode, N)
    rng = np.random.default_rng(seed)
    base, inter = model.baseline, model.interaction
    dense0 = xi0.to_dense()
    n_init = xi0.total_hosts
    arrivals, entry = np.zeros(0), np.zeros(0, dtype=np.int64)
    if rates.beta_dom > 0.0:
        arrivals = np.sort(rng.random(rng.poisson(N * rates.beta_dom * T))) * T
        v = rng.random(arrivals.size) * rates.beta_dom
        arrivals = arrivals[_plain_accepts(rates, np.full(arrivals.size, IMMIGRATION),
                                           np.full(arrivals.size, -1), arrivals, v)]
        entry = np.array([inter.beta_sample(ode.density(t), rng) for t in arrivals],
                         dtype=np.int64)
    events = [(float(t), n_init + k, _KIND_INDEX[EventKind.IMMIGRATION], -1, int(load))
              for k, (t, load) in enumerate(zip(arrivals, entry))]
    act = np.arange(n_init + arrivals.size)
    cur = np.concatenate([np.repeat(np.arange(dense0.size), dense0), entry])
    clock = np.concatenate([np.zeros(n_init), arrivals])
    top = int(cur.max(initial=0))
    final = []
    while act.size:
        row = rates.per_load(top)[cur]
        t = clock + rng.standard_exponential(act.size) * row[:, 4]
        u = rng.random(act.size) * row[:, 3]
        cls = (u[:, None] >= row[:, :3]).sum(axis=1)
        running = t <= T
        jumped = running & (cls < 2)
        thin = (running & (cls >= 2)).nonzero()[0]
        if thin.size:
            v = rng.random(thin.size) * row[thin, cls[thin] + 3]
            jumped[thin[_plain_accepts(rates, cls[thin] - 2, cur[thin], t[thin], v)]] = True
        to = cur.copy()
        for j in range(act.size):
            if not running[j]:
                final.append(int(cur[j]))
                continue
            if not jumped[j]:
                continue
            i = int(cur[j])
            if cls[j] == 0:
                to[j] = base.sample_exit(i, float(u[j]), 0.0)
            elif cls[j] == 2:
                to[j] = int(inter.alpha_sample(i, ode.density(float(t[j])), rng))
            else:
                to[j] = -1
            top = max(top, int(to[j]))
            kind = _KIND_INDEX[_CLASS_KINDS[cls[j]]]
            events.append((float(t[j]), int(act[j]), kind, i, int(to[j])))
        keep = running & (to >= 0)
        act, cur, clock = act[keep], to[keep], t[keep]
    events.sort(key=lambda e: (e[0], e[1]))
    return PathRecord(model.name + "~", N, T, seed if isinstance(seed, int) else -1, xi0,
                      np.array([e[0] for e in events]),
                      np.array([e[2] for e in events], dtype=np.int8),
                      np.array([e[3] for e in events], dtype=np.int64),
                      np.array([e[4] for e in events], dtype=np.int64),
                      PopulationState.from_dict(
                          {load: final.count(load) for load in set(final)}))


def _density_death_interaction(c: float) -> InteractionSpec:
    # excess death at c times the infected density: a time-varying d1 channel
    return InteractionSpec(
        alpha_total=lambda i, x: 0.0, alpha_sample=None,
        alpha_pointwise=lambda i, l, x: 0.0,
        beta_total=lambda x: 0.0, beta_sample=None,
        beta_pointwise=lambda i, x: 0.0,
        delta=lambda i, x: c * float(x[1:].sum()),
        envelopes=Envelopes(d1=lambda z: c),
        alpha_loads=frozenset(), beta_zero=True,
    )


def _inert_baseline() -> BaselineGenerator:
    return BaselineGenerator(lambda i: (), lambda i: 0.0, 1.0, 1.0)


EXAMPLES = {
    "luchsinger_nonlinear": (
        lambda: luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)), [0.9, 0.1]),
    "luchsinger_linear": (
        lambda: luchsinger_linear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)), [0.0, 0.9, 0.1]),
    "kretzschmar_modified": (
        lambda: kretzschmar_modified(1.5, OffspringLaw.poisson(0.6), 1.0, 0.3, 0.2,
                                     beta_birth=0.5, birth_discount=0.9, c=1.0),
        [0.5, 0.3, 0.2]),
}
# a growing epidemic: the infection rate rises inside every segment
GROWING = (lambda: luchsinger_nonlinear(3.0, 1.0, 1.0, OffspringLaw.poisson(1.0)), [0.95, 0.05])
COARSE = {"rtol": 0.5, "atol": 0.05}

# name -> (model factory, x0, truncation J, integrate options)
REFERENCE_CASES = {
    **{name: (make, x0, 54, {}) for name, (make, x0) in EXAMPLES.items()},
    "constant_excess_death": (
        lambda: ModelSpec("kill", _inert_baseline(), _const_death_interaction(0.8)),
        [1.0], 1, {}),
    "constant_immigration": (
        lambda: ModelSpec("imm", _inert_baseline(), _const_immigration_interaction(0.4)),
        [1.0], 1, {}),
    "density_excess_death": (
        lambda: ModelSpec("cull", pure_death_model(1.0).baseline,
                          _density_death_interaction(1.5)),
        [0.2, 0.8], 1, {}),
    "kretzschmar_modified_coarse": (*EXAMPLES["kretzschmar_modified"], 54, COARSE),
    "growing_coarse": (*GROWING, 54, COARSE),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_squeeze_reproduces_plain_thinning(case):
    # same candidates, same uniforms, same decisions: bit-identical paths
    make, x0, J, opts = REFERENCE_CASES[case]
    model = make()
    N, T = 20, 1.0
    sol = integrate(model, np.array(x0), T, J=J, **opts)
    xi0 = round_initial(np.array(x0), N)
    rates = TildeRates(model, sol, N)
    for seed in range(200):
        new = simulate_tilde(model, xi0, N, T, sol, seed,
                             rates=rates if seed % 2 else None)
        ref = plain_simulate_tilde(model, xi0, N, T, sol, seed)
        for name in ("times", "kinds", "load_from", "load_to"):
            a, b = getattr(new, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (seed, name)
        assert new.final == ref.final


def test_squeeze_evaluates_a_tenth_of_the_rates(model61, sol61, xi0_100, monkeypatch):
    # criterion 06's check: the same report from at most a tenth of the
    # alpha_total calls that plain thinning makes
    calls = [0]

    def counted(i, x):
        calls[0] += 1
        return model61.interaction.alpha_total(i, x)

    model = ModelSpec(model61.name, model61.baseline,
                      dataclasses.replace(model61.interaction, alpha_total=counted))

    def run():
        calls[0] = 0
        rep = mean_identity_check(model, xi0_100, 100, 2.0, sol61, replicas=40,
                                  seed=np.random.SeedSequence(614),
                                  ts=[0.5, 1.0, 2.0], max_load=11)
        return rep, calls[0]

    new, new_calls = run()
    monkeypatch.setattr(tilde, "simulate_tilde", plain_simulate_tilde)
    ref, ref_calls = run()
    assert new.rows == ref.rows
    assert ref_calls > 0 and new_calls <= 0.1 * ref_calls, (new_calls, ref_calls)


@pytest.mark.parametrize("opts", [{}, COARSE], ids=["default", "coarse"])
@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_segment_bounds_cover_the_dense_output(name, opts):
    make, x0 = EXAMPLES[name]
    model = make()
    inter = model.interaction
    sol = integrate(model, np.array(x0), 1.0, J=54, **opts)
    e = inter.envelopes
    rates = TildeRates(model, sol, 20)
    E = rates.excursions

    def bound(channel, load, t):
        return rates.bounds(np.array([channel]), np.array([load]), np.array([t]))[0]

    assert E.shape == (sol.ts.size - 1,)
    f = np.abs(sol.fs).sum(axis=1)
    for k in range(sol.ts.size - 1):
        # E_k is the Hermite excursion formula plus a few ulps of rounding slack
        h = sol.ts[k + 1] - sol.ts[k]
        formula = np.abs(sol.ys[k + 1] - sol.ys[k]).sum() + h * 4 / 27 * (f[k] + f[k + 1])
        assert formula <= E[k] <= formula + 1e-13
        # the bound is min(dominator, rate(y_k) + modulus(||pos y_k||_11) E_k)
        y, z = sol.ys[k], l11_norm(np.maximum(sol.ys[k], 0.0))
        assert bound(IMMIGRATION, -1, sol.ts[k]) == min(
            rates.beta_dom, inter.beta_total_at(y) + e.b01(z) * E[k])
        for i in range(6):
            assert bound(MOVE, i, sol.ts[k]) == min(
                rates.alpha_dom_at(i), inter.alpha_total_at(i, y) + e.a01(z) * E[k])
        grid = np.linspace(sol.ts[k], sol.ts[k + 1], 257)
        xs = sol.density_many(grid)
        excursion = np.abs(np.maximum(xs, 0.0) - np.maximum(sol.ys[k], 0.0)).sum(axis=1)
        assert excursion.max() <= E[k], (k, excursion.max(), E[k])
        # t_{k+1} opens segment k + 1, so the rates run over [t_k, t_{k+1})
        for t, x in zip(grid[:-1], xs[:-1]):
            for i in range(6):
                assert inter.alpha_total_at(i, x) <= bound(MOVE, i, t)
                assert inter.delta_at(i, x) <= bound(DEATH, i, t)
            assert inter.beta_total_at(x) <= bound(IMMIGRATION, -1, t)


def test_local_bound_fault_injection():
    # a01(0) is right, so the global dominator holds and plain thinning
    # runs clean, but a01(z) = 0 for z > 0 leaves the segment bound at
    # rate(y_k), which the rising infection rate passes inside a segment
    make, x0 = GROWING
    model = make()
    env = dataclasses.replace(model.interaction.envelopes,
                              a01=lambda z: 3.0 if z == 0.0 else 0.0)
    bad = ModelSpec(model.name, model.baseline,
                    dataclasses.replace(model.interaction, envelopes=env))
    sol = integrate(model, np.array(x0), 1.0, J=54)
    xi0 = round_initial(np.array(x0), 100)
    for s in range(50):
        plain_simulate_tilde(bad, xi0, 100, 1.0, sol, s)
    with pytest.raises(DominatingRateError):
        for s in range(50):
            simulate_tilde(bad, xi0, 100, 1.0, sol, s)


def test_simulate_tilde_rejects_foreign_rates(model61, xi0_100, sol61_T1, sol61):
    rates = TildeRates(model61, sol61, 100)
    with pytest.raises(ValueError):
        simulate_tilde(model61, xi0_100, 100, 1.0, sol61_T1, 0, rates=rates)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_lockstep_law_matches_per_individual_engine(name):
    # two-sample test of the lockstep engine against the per-individual
    # loop: per-load counts (loads past 10 pooled) at fixed times, Welch z
    # per cell; 3 x 11 cells, so max |z| > 4 has probability about 0.002
    make, x0 = EXAMPLES[name]
    model = make()
    N, T, R, ts, width = 20, 1.0, 1000, [0.25, 0.5, 1.0], 11
    sol = integrate(model, np.array(x0), T, J=54)
    xi0 = round_initial(np.array(x0), N)

    def counts(engine, seed):
        out = np.zeros((R, len(ts), width))
        for r, child in enumerate(np.random.SeedSequence(seed).spawn(R)):
            c = engine(model, xi0, N, T, sol, child).counts_at(ts, width)
            out[r] = np.hstack([c[:, : width - 1], c[:, width - 1:].sum(axis=1, keepdims=True)])
        return out

    a, b = counts(simulate_tilde, 1), counts(ref_simulate_tilde, 2)
    se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / R)
    diff = np.abs(a.mean(axis=0) - b.mean(axis=0))
    assert np.all(diff[se == 0] == 0)
    z = diff[se > 0] / se[se > 0]
    assert z.size >= 2 * len(ts) and z.max() <= 4.0, z.max()
