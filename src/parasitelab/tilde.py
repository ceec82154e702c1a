"""Auxiliary process of independent individuals driven by the limit flow.

Each individual follows the within-host baseline plus interaction rates
frozen at the deterministic trajectory (so individuals never see each
other), and immigrants arrive by an inhomogeneous Poisson process whose
rate is the immigration evaluator along the same trajectory.  The mean
of the aggregate process is exactly N times the limit solution, which
is what the four checks certify empirically; they read each replica's
counts at their check times with ``PathRecord.counts_at``.

Time-varying rates are simulated by thinning: candidates are proposed
at the declared dominating rate (envelope constants evaluated at the
trajectory's sup host norm) and accepted with actual/dominating
evaluated at the candidate time.  An actual rate above its dominator is
a hard error: it means the model's envelope declarations are wrong.

The acceptance test is a squeeze (Devroye 1986, II.5): on each segment
of the limit's dense output a proven bound caps every frozen rate, and
a candidate whose scaled acceptance uniform lies above that bound is
rejected without evaluating the rate or the trajectory.  Candidates,
uniforms and their order are those of plain thinning, so every path is
the same bit for bit; only the ghosts (rejected candidates) get cheaper.

Per-individual draw order: one exponential per candidate, one uniform
for the candidate class (baseline moves consume it fully, including the
target choice), then one acceptance uniform plus the model's target
draws for interaction candidates.  Individuals get independent child
seeds in a fixed order (initial hosts ascending by load then index, the
immigration clock, then immigrants in arrival order), so permuting
hosts never changes the aggregate law and the merged path is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .ode import OdeSolution
from .rates import EventKind, ModelSpec, bound_constants
from .ssa import PathRecord, _KIND_INDEX
from .state import PopulationState, l11_norm

_SOUNDNESS_TOL = 1e-9
# max of |h10| and |h11|, the cubic Hermite slope bases, on [0, 1]
_HERMITE_SLOPE = 4.0 / 27.0
# rounding slack of one dense-output evaluation, relative to its terms
_HERMITE_ROUNDING = 16.0 * np.finfo(np.float64).eps


class DominatingRateError(RuntimeError):
    """An evaluated rate exceeded its declared dominator (broken envelopes)."""

    def __init__(self, kind: str, load: int, actual: float, dominator: float, t: float):
        super().__init__(
            f"{kind} rate {actual:.6g} exceeds dominator {dominator:.6g} "
            f"at load {load}, t = {t:.6g}")


def check_dominated(kind: str, load: int, actual: float, dom: float, t: float) -> float:
    """Return ``actual``, or raise if it exceeds its thinning dominator."""
    if actual > dom * (1.0 + _SOUNDNESS_TOL):
        raise DominatingRateError(kind, load, actual, dom, t)
    return actual


@dataclass
class TildeRates:
    """Interaction rates frozen at the limit trajectory, plus dominators.

    The dominating constants come from the declared envelopes evaluated
    at zero and scaled by the trajectory's sup host norm; structural
    zeros (loads without interaction moves, models without excess death
    or immigration) get zero dominators, which keeps thinning free for
    those channels.  ``simulate_coupled`` thins its trajectory-frozen
    side against these same dominators.

    ``accepts`` decides a thinned candidate by a squeeze.  On segment k
    of the dense output, ``excursions[k]`` bounds the l1 distance of
    every dense-output state from the node ``y_k``, so a channel's rate
    there is at most ``rate(y_k) + modulus(||pos(y_k)||_11) * E_k``
    (``a01``, ``d1`` or ``b01``: nondecreasing moduli at the smaller l11
    norm, and the positive part is 1-Lipschitz in l1).  A candidate
    whose acceptance uniform, scaled by the global dominator, lies
    above that bound is rejected unevaluated; otherwise the rate is
    evaluated and checked against both bounds.  The uniform is drawn by
    the caller exactly where plain thinning draws it, so the decision
    and the stream are unchanged whenever the envelopes hold.
    """

    model: ModelSpec
    ode: OdeSolution
    N: int

    def __post_init__(self):
        inter = self.model.interaction
        e = inter.envelopes
        g = self.ode.G_T
        self.alpha_dom = e.alpha_dominator(g)
        self.delta_dom = 0.0 if inter.delta_zero else e.delta_dominator(g)
        self.beta_dom = 0.0 if inter.beta_zero else e.beta_dominator(g)
        # kind -> (rate at a density, Lipschitz modulus)
        self._channels = {
            "interaction-move": (inter.alpha_total_at, e.a01),
            "interaction-death": (inter.delta_at, e.d1),
            "immigration": (lambda load, x: inter.beta_total_at(x), e.b01),
        }
        self._nodes = self.ode.ts.tolist()
        self._bounds: dict[tuple[str, int, int], float] = {}

    def alpha_dom_at(self, i: int) -> float:
        loads = self.model.interaction.alpha_loads
        if loads is not None and i not in loads:
            return 0.0
        return self.alpha_dom

    def density(self, t: float) -> np.ndarray:
        return self.ode.density(t)

    @cached_property
    def excursions(self) -> np.ndarray:
        """Per segment k, a bound on ||density(t) - y_k||_1 over [t_k, t_{k+1}].

        ``E_k = ||y_{k+1} - y_k||_1 + h_k 4/27 (||f_k||_1 + ||f_{k+1}||_1)``,
        since ``0 <= h01 <= 1`` and ``|h10|, |h11| <= 4/27`` on [0, 1],
        plus a rounding slack of a few ulps of the evaluated terms.
        """
        ode = self.ode
        h = np.diff(ode.ts)
        f = np.abs(ode.fs).sum(axis=1)
        y = np.abs(ode.ys).sum(axis=1)
        slopes = h * (f[:-1] + f[1:])
        dy = np.abs(np.diff(ode.ys, axis=0)).sum(axis=1)
        return (dy + _HERMITE_SLOPE * slopes
                + _HERMITE_ROUNDING * (y[:-1] + y[1:] + slopes))

    def _dominator(self, kind: str, load: int) -> float:
        if kind == "interaction-move":
            return self.alpha_dom_at(load)
        return self.delta_dom if kind == "interaction-death" else self.beta_dom

    def bound(self, kind: str, load: int, t: float) -> float:
        """The channel's rate bound on the dense-output segment holding t."""
        nodes = self._nodes
        k = min(max(bisect_right(nodes, t) - 1, 0), len(nodes) - 2)
        key = (kind, load, k)
        bound = self._bounds.get(key)
        if bound is None:
            dom = self._dominator(kind, load)
            if k < 0:           # a one-node solution has no segments
                bound = dom
            else:
                rate, modulus = self._channels[kind]
                y = self.ode.ys[k]
                z = l11_norm(np.maximum(y, 0.0))
                bound = min(dom, rate(load, y) + modulus(z) * float(self.excursions[k]))
            self._bounds[key] = bound
        return bound

    def accepts(self, kind: str, load: int, t: float, v: float) -> bool:
        """Thinning decision for a candidate of channel (kind, load) at t.

        ``v`` is the candidate's acceptance uniform times the channel's
        global dominator; the candidate is accepted iff ``v`` is below
        the frozen rate at t.  Raises ``DominatingRateError`` when an
        evaluated rate exceeds the global dominator or the segment bound.
        """
        bound = self.bound(kind, load, t)
        if v >= bound * (1.0 + _SOUNDNESS_TOL):
            return False
        rate = self._channels[kind][0](load, self.ode.density(t))
        check_dominated(kind, load, rate, self._dominator(kind, load), t)
        check_dominated(kind, load, rate, bound, t)
        return v < rate


@dataclass
class IndividualPath:
    """One individual's trajectory: jump list and survival status."""

    start_load: int
    start_time: float
    events: list[tuple[float, int, int, int]] = field(default_factory=list)
    alive: bool = True
    final_load: Optional[int] = None


def simulate_individual(rates: TildeRates, i0: int, t0: float, T: float,
                        seed) -> IndividualPath:
    """Exact thinned realization of one individual from (i0, t0) to T.

    Baseline moves and death are time-homogeneous and drawn exactly;
    the trajectory-frozen interaction move and excess-death rates are
    thinned against their dominators.  Death ends the trajectory (the
    cemetery never appears in any count).
    """
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
            if rates.accepts("interaction-move", i, t, rng.random() * a_dom):
                target = int(inter.alpha_sample(i, rates.density(t), rng))
                path.events.append((t, _KIND_INDEX[EventKind.INTERACTION_MOVE], i, target))
                i = target
        else:
            if rates.accepts("interaction-death", i, t, rng.random() * rates.delta_dom):
                path.events.append((t, _KIND_INDEX[EventKind.INTERACTION_DEATH], i, -1))
                path.alive = False
                return path
    path.final_load = i
    return path


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def simulate_tilde(model: ModelSpec, xi0: PopulationState, N: int, T: float,
                   ode: OdeSolution, seed,
                   rates: Optional[TildeRates] = None) -> PathRecord:
    """Superposed independent-individuals path as an aggregate record.

    One individual per initial host plus Poisson immigrants (rate N
    times the frozen immigration evaluator, realized by thinning).
    Events are merged by time with ties broken by individual index.
    ``rates``, the ``TildeRates`` of ``model`` and ``ode``, lets the
    replicas of one check share its segment bounds; it changes no path.
    """
    if ode.blow_up or ode.t_end < T - 1e-12:
        raise ValueError("the limit solution must span [0, T] without blow-up")
    if rates is None:
        rates = TildeRates(model, ode, N)
    elif rates.model is not model or rates.ode is not ode:
        raise ValueError("rates must be the TildeRates of this model and limit solution")
    ss = _seed_sequence(seed)
    n_init = xi0.total_hosts
    children = ss.spawn(n_init + 1)

    events: list[tuple[float, int, int, int, int]] = []
    idx = 0
    for load, count in xi0:
        for _ in range(count):
            ind = simulate_individual(rates, load, 0.0, T, np.random.default_rng(children[idx]))
            events.extend((t, idx, k, lf, lt) for t, k, lf, lt in ind.events)
            idx += 1

    imm_rng = np.random.default_rng(children[n_init])
    total_dom = N * rates.beta_dom
    t = 0.0
    while total_dom > 0.0:
        t += imm_rng.exponential(1.0 / total_dom)
        if t > T:
            break
        if rates.accepts("immigration", -1, t, imm_rng.random() * rates.beta_dom):
            load = int(model.interaction.beta_sample(rates.density(t), imm_rng))
            events.append((t, idx, _KIND_INDEX[EventKind.IMMIGRATION], -1, load))
            ind = simulate_individual(rates, load, t, T, np.random.default_rng(ss.spawn(1)[0]))
            events.extend((te, idx, k, lf, lt) for te, k, lf, lt in ind.events)
            idx += 1

    events.sort(key=lambda e: (e[0], e[1]))
    times = np.array([e[0] for e in events])
    kinds = np.array([e[2] for e in events], dtype=np.int8)
    lfrom = np.array([e[3] for e in events], dtype=np.int64)
    lto = np.array([e[4] for e in events], dtype=np.int64)

    path = PathRecord(model.name + "~", N, T, seed if isinstance(seed, int) else -1, xi0,
                      times, kinds, lfrom, lto, xi0)     # final: replayed below
    path.final = PopulationState.from_dense(path.counts_at([T])[0])
    return path


def _replica_counts(model: ModelSpec, xi0: PopulationState, N: int, T: float,
                    ode: OdeSolution, replicas: int, seed, ts: Sequence[float],
                    width: int) -> Iterator[tuple[PathRecord, np.ndarray]]:
    """Per replica, in spawn order: the path and its float64 counts at ``ts``.

    ``simulate_tilde`` is looked up as a module global at every call, so
    wrappers installed on ``tilde.simulate_tilde`` see every replica.
    The replicas share one ``TildeRates``, whose segment bounds are
    filled once for all of them.
    """
    rates = TildeRates(model, ode, N)
    for child in _seed_sequence(seed).spawn(replicas):
        path = simulate_tilde(model, xi0, N, T, ode, child, rates=rates)
        yield path, path.counts_at(ts, width).astype(np.float64)


@dataclass
class MomentBoundReport:
    """Empirical l11 moment of the aggregate vs the exponential bound."""

    bound: float
    empirical_sup: float
    margin: float
    grid: np.ndarray
    empirical: np.ndarray
    replicas: int

    @property
    def ok(self) -> bool:
        # the bound is attained exactly at t = 0 when the growth
        # exponent vanishes; don't fail on roundoff at equality
        return self.empirical_sup <= self.bound * (1.0 + 1e-12) + 1e-12


def moment_bound_check(model: ModelSpec, xi0: PopulationState, N: int, T: float,
                       ode: OdeSolution, replicas: int, seed,
                       n_grid: int = 9) -> MomentBoundReport:
    """Estimate sup_t N^{-1} sum_l (l+1) E X~^l(t) against its bound.

    The bound is (N^{-1} ||X(0)||_11 + T (b10 + b11(0) M_T)) exponentially
    amplified at rate w + a0* + a1* M_T.
    """
    e = model.interaction.envelopes
    bc = bound_constants(model, max(ode.M_T, 1.0), max(ode.G_T, 1.0), N)
    M = max(ode.M_T, 1.0)
    bound = (l11_norm(xi0.to_dense()) / N + T * (e.b10 + e.b11(0.0) * M)) \
        * math.exp((model.baseline.w + bc.a0_star + bc.a1_star * M) * T)
    grid = np.linspace(0.0, T, n_grid)
    acc = np.zeros(n_grid)
    for _, counts in _replica_counts(model, xi0, N, T, ode, replicas, seed, grid, 1):
        acc += counts @ np.arange(1.0, counts.shape[1] + 1) / N
    emp = acc / replicas
    sup = float(emp.max())
    return MomentBoundReport(bound, sup, bound - sup, grid, emp, replicas)


@dataclass
class MeanIdentityRow:
    t: float
    load: int
    empirical: float
    target: float           # N x^j(t)
    std_err: float
    z: float


@dataclass
class MeanIdentityReport:
    """Per-load aggregate means against N x(t) at the check times."""

    rows: list[MeanIdentityRow]
    replicas: int
    worst_z: float

    @property
    def ok(self) -> bool:
        return self.worst_z <= 3.0


def mean_identity_check(model: ModelSpec, xi0: PopulationState, N: int, T: float,
                        ode: OdeSolution, replicas: int, seed,
                        ts: Sequence[float] = (), max_load: int = 12) -> MeanIdentityReport:
    """Per-load empirical means of the aggregate against N x(t).

    The standard error gets a model floor sqrt(N x^j / R): the per-load
    count is a sum of independent indicators plus a Poisson term, so its
    variance never exceeds its mean, which keeps the z-score meaningful
    at loads too rare for a stable sample variance.
    """
    ts = list(ts) if len(list(ts)) else [T / 2, T]
    sums, sumsq = np.zeros((2, len(ts), max_load + 1))
    for _, counts in _replica_counts(model, xi0, N, T, ode, replicas, seed, ts, max_load + 1):
        sums += counts[:, : max_load + 1]
        sumsq += counts[:, : max_load + 1] ** 2
    rows: list[MeanIdentityRow] = []
    worst = 0.0
    for g, t in enumerate(ts):
        x = ode.density(float(t))
        for j in range(max_load + 1):
            mean = sums[g, j] / replicas
            var = max(sumsq[g, j] / replicas - mean ** 2, 0.0)
            target = N * (x[j] if j < x.size else 0.0)
            se = max(math.sqrt(var / replicas),
                     math.sqrt(max(target, 1e-12) / replicas))
            z = abs(mean - target) / se
            worst = max(worst, z)
            rows.append(MeanIdentityRow(float(t), j, mean, target, se, z))
    return MeanIdentityReport(rows, replicas, worst)


@dataclass
class ConcentrationReport:
    """Mean l1 distance of the aggregate from N x(t) vs the sqrt(N log N) bound."""

    grid: np.ndarray
    empirical_mean: np.ndarray
    std_err: np.ndarray
    bound: float
    tail_thresholds: dict[float, float]
    tail_frequency: dict[float, float]
    replicas: int

    @property
    def ok(self) -> bool:
        return bool(np.all(self.empirical_mean <= self.bound))


def concentration_check(model: ModelSpec, xi0: PopulationState, N: int, T: float,
                        ode: OdeSolution, replicas: int, seed,
                        n_grid: int = 9,
                        tail_K: Sequence[float] = (0.5, 1.0)) -> ConcentrationReport:
    """Empirical E || X~(t) - N x(t) ||_1 at grid times against its bound.

    Also records, for each configured K, the frequency of the distance
    exceeding K (M_T + 1) sqrt(N) log^{3/2} N at any grid time.
    """
    if N < 9:
        raise ValueError("the concentration bound needs N >= 9")
    grid = np.linspace(0.0, T, n_grid)
    M = max(ode.M_T, 1.0)
    bound = 3.0 * (M + 1.0) * math.sqrt(N * math.log(N))
    thresholds = {K: K * (M + 1.0) * math.sqrt(N) * math.log(N) ** 1.5 for K in tail_K}
    dists = np.zeros((replicas, n_grid))
    exceed = {K: 0 for K in tail_K}
    limit = N * ode.density_many(grid)
    replays = _replica_counts(model, xi0, N, T, ode, replicas, seed, grid, ode.J + 1)
    for r, (_, counts) in enumerate(replays):
        counts[:, : limit.shape[1]] -= limit
        dists[r] = np.abs(counts).sum(axis=1)
        worst = dists[r].max()
        for K, thr in thresholds.items():
            exceed[K] += worst > thr
    mean = dists.mean(axis=0)
    se = dists.std(axis=0, ddof=1) / math.sqrt(replicas)
    freq = {K: exceed[K] / replicas for K in tail_K}
    return ConcentrationReport(grid, mean, se, bound, thresholds, freq, replicas)


@dataclass
class WindowFluctuationReport:
    """Short-window jump counts conditioned on starting near N x(t)."""

    h: float
    threshold_jumps: float
    windows_checked: int
    exceedances: int

    @property
    def frequency(self) -> float:
        return self.exceedances / self.windows_checked if self.windows_checked else 0.0


def window_fluctuation_check(model: ModelSpec, xi0: PopulationState, N: int,
                             T: float, ode: OdeSolution, replicas: int, seed,
                             K: float = 1.0, a: float = 2.0,
                             starts: int = 8) -> WindowFluctuationReport:
    """Count jumps of the aggregate in windows of the admissible length.

    Windows start at grid times where the aggregate sits within
    K sqrt(N) log^{3/2} N of N x(t); the admissible window length is
    1 / (2 ceil(N M_T)^{m2} H_T) and the jump count is compared to
    K sqrt(N) log^{3/2} N + a log N.  K and a are free parameters of
    the statement and exposed as configuration.
    """
    M = max(ode.M_T, 1.0)
    bc = bound_constants(model, M, max(ode.G_T, 1.0), N)
    m2 = model.baseline.m2
    h = 1.0 / (2.0 * math.ceil(N * M) ** m2 * bc.H_T)
    near = K * math.sqrt(N) * math.log(N) ** 1.5
    threshold = near + a * math.log(N)
    checked = 0
    exceed = 0
    start_ts = np.linspace(0.0, T - h, starts)
    limit = N * ode.density_many(start_ts)
    for path, counts in _replica_counts(model, xi0, N, T, ode, replicas, seed,
                                        start_ts, ode.J + 1):
        counts[:, : limit.shape[1]] -= limit
        is_near = np.abs(counts).sum(axis=1) <= near
        lo, hi = np.searchsorted(path.times, (start_ts, start_ts + h), side="right")
        checked += int(is_near.sum())
        exceed += int(((hi - lo)[is_near] > threshold).sum())
    return WindowFluctuationReport(h, threshold, checked, exceed)
