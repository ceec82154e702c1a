"""Auxiliary process of independent individuals driven by the limit flow.

Each individual follows the within-host baseline plus interaction rates
frozen at the deterministic trajectory (so individuals never see each
other), and immigrants arrive by an inhomogeneous Poisson process whose
rate is the immigration evaluator along the same trajectory.  The mean
of the aggregate process is exactly N times the limit solution, which
is what the three checks certify empirically; they read each replica's
counts at their check times with ``PathRecord.counts_at``.

Time-varying rates are simulated by thinning: candidates are proposed
at the declared dominating rate (envelope constants evaluated at the
trajectory's sup host norm) and accepted with actual/dominating
evaluated at the candidate time.  An actual rate above its dominator is
a hard error: it means the model's envelope declarations are wrong.

The acceptance test is a squeeze (Devroye 1986, II.5): on each segment
of the limit's dense output a proven bound caps every frozen rate, and
a candidate whose scaled acceptance uniform lies above that bound is
rejected without evaluating the rate or the trajectory.  The decision
is that of plain thinning on the same uniform, so only the ghosts
(rejected candidates) get cheaper.

Since individuals are independent, a replica advances all of them in
lockstep rounds on one generator, seeded by the replica's seed.  Draw
order: first the immigration clock (a Poisson candidate count on [0, T],
sorted uniform candidate times, one acceptance uniform per candidate,
then one ``beta_sample`` per accepted arrival); immigrants join the
initial hosts (ascending by load) at their arrival times, in arrival
order.  Then each round draws, over the individuals still running in
index order, one exponential waiting time and one class uniform
(baseline moves consume it fully, including the target choice; an
individual whose next candidate falls past T stops and leaves its
uniform unused), then one acceptance uniform per thinned interaction
candidate, then one ``alpha_sample`` per accepted interaction move.  The
merged path orders the events by time, ties broken by individual index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .ode import OdeSolution
from .rates import ModelSpec, bound_constants
from .ssa import (PathRecord, _BASE_DEATH, _BASE_MOVE, _IMMIGRATION, _INTERACTION_DEATH,
                  _INTERACTION_MOVE)
from .state import PopulationState, l11_norm

_SOUNDNESS_TOL = 1e-9
# max of |h10| and |h11|, the cubic Hermite slope bases, on [0, 1]
_HERMITE_SLOPE = 4.0 / 27.0
# rounding slack of one dense-output evaluation, relative to its terms
_HERMITE_ROUNDING = 16.0 * np.finfo(np.float64).eps
# the thinned channels; ``accepts`` takes indices into CHANNELS
CHANNELS = ("interaction-move", "interaction-death", "immigration")
MOVE, DEATH, IMMIGRATION = range(len(CHANNELS))
# candidate classes of an individual: baseline move, baseline death,
# interaction move, interaction death; the immigration clock's arrivals
# are recorded as a fifth class
_IMMIGRATION_CLASS = 4
_CLASS_KIND = np.array([_BASE_MOVE, _BASE_DEATH, _INTERACTION_MOVE, _INTERACTION_DEATH,
                        _IMMIGRATION], dtype=np.int8)
_CLASS_DIES = np.array([False, True, False, True, False])


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
    those channels.  ``simulate_coupled`` decides its trajectory-frozen
    candidates through ``accepts`` too, one candidate per call, so both
    engines share one thinning policy.  One instance serves every
    replica of a study, in either engine.

    ``accepts`` decides thinned candidates by a squeeze.  On segment k
    of the dense output, ``excursions[k]`` bounds the l1 distance of
    every dense-output state from the node ``y_k``, so a channel's rate
    there is at most ``rate(y_k) + modulus(||pos(y_k)||_11) * E_k``
    (``a01``, ``d1`` or ``b01``: nondecreasing moduli at the smaller l11
    norm, and the positive part is 1-Lipschitz in l1).  A candidate
    whose acceptance uniform, scaled by the global dominator, lies
    above that bound is rejected unevaluated; otherwise the rate is
    evaluated and checked against both bounds.  The decision is plain
    thinning's whenever the envelopes hold.

    The per-load thinning table (``per_load``) and the segment bounds
    are filled lazily, for the loads and segments that candidates reach.
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
        # per channel of CHANNELS: (rate at a density, Lipschitz modulus)
        self._channels = (
            (inter.alpha_total_at, e.a01),
            (inter.delta_at, e.d1),
            (lambda load, x: inter.beta_total_at(x), e.b01),
        )
        self._per_load = np.empty((0, 7))
        # segment bounds by (channel, load, segment); nan until evaluated
        self._bounds = np.empty((len(CHANNELS), 0, max(self.ode.ts.size - 1, 1)))

    def alpha_dom_at(self, i: int) -> float:
        loads = self.model.interaction.alpha_loads
        if loads is not None and i not in loads:
            return 0.0
        return self.alpha_dom

    def per_load(self, top: int) -> np.ndarray:
        """Thinning table with a row for every load 0..top (or more).

        Columns: the class thresholds ``astar``, ``astar + dbar`` and
        ``astar + dbar + alpha_dom``; the total dominating rate ``dom``
        (plus ``delta_dom``); ``1 / dom`` (inf for a load that never
        jumps); then ``alpha_dom`` and ``delta_dom``, the dominators of
        the thinned classes.
        """
        table = self._per_load
        if table.shape[0] <= top:
            base = self.model.baseline
            rows = []
            for i in range(table.shape[0], top + 1):
                astar, adom = base.alpha_star(i), self.alpha_dom_at(i)
                c2 = astar + base.dbar(i)
                dom = c2 + adom + self.delta_dom
                rows.append((astar, c2, c2 + adom, dom, 1.0 / dom if dom > 0.0 else math.inf,
                             adom, self.delta_dom))
            table = self._per_load = np.vstack([table, rows])
        return table

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

    def dominator(self, channel: int, load: int) -> float:
        """Global dominator of channel ``CHANNELS[channel]`` at ``load``."""
        if channel == MOVE:
            return self.alpha_dom_at(load)
        return self.delta_dom if channel == DEATH else self.beta_dom

    def _segment_bound(self, channel: int, load: int, k: int) -> float:
        dom = self.dominator(channel, load)
        if self.ode.ts.size < 2:        # a one-node solution has no segments
            return dom
        rate, modulus = self._channels[channel]
        y = self.ode.ys[k]
        z = l11_norm(np.maximum(y, 0.0))
        return min(dom, rate(load, y) + modulus(z) * float(self.excursions[k]))

    def bounds(self, channels: np.ndarray, loads: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Per candidate, its channel's rate bound on the segment holding its time.

        ``channels`` index ``CHANNELS``; immigration candidates carry load -1.
        """
        ks = self.ode.segments(ts)
        rows = np.maximum(loads, 0)             # immigration has one row
        height = int(rows.max(initial=0)) + 1
        if self._bounds.shape[1] < height:
            grown = np.full((len(CHANNELS), height, self._bounds.shape[2]), np.nan)
            grown[:, : self._bounds.shape[1]] = self._bounds
            self._bounds = grown
        out = self._bounds[channels, rows, ks]
        miss = np.isnan(out)
        if miss.any():
            for c, load, k in set(zip(channels[miss].tolist(), loads[miss].tolist(),
                                      ks[miss].tolist())):
                self._bounds[c, max(load, 0), k] = self._segment_bound(c, load, k)
            out = self._bounds[channels, rows, ks]
        return out

    def accepts(self, channels: np.ndarray, loads: np.ndarray, ts: np.ndarray,
                vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Thinning decisions for candidates of the channels ``CHANNELS[channels]``.

        ``vs`` are the candidates' acceptance uniforms times their
        channel's global dominator; candidate j is accepted iff ``vs[j]``
        is below its frozen rate at ``ts[j]``.  Returns the indices of
        the accepted candidates, ascending, and the limit density at each
        of their times (for the samplers of accepted moves and arrivals).
        Raises ``DominatingRateError`` when an evaluated rate exceeds the
        global dominator or the segment bound.
        """
        bound = self.bounds(channels, loads, ts)
        live = (vs < bound * (1.0 + _SOUNDNESS_TOL)).nonzero()[0]
        if not live.size:
            return live, np.zeros((0, self.ode.J + 1))
        # one survivor: ``density`` is the ``density_many`` row, bit for bit
        xs = self.ode.density(float(ts[live[0]]))[None, :] if live.size == 1 \
            else self.ode.density_many(ts[live])
        accepted = np.zeros(live.size, dtype=bool)
        for n, (j, x) in enumerate(zip(live.tolist(), xs)):
            c, load, t = int(channels[j]), int(loads[j]), float(ts[j])
            rate = self._channels[c][0](load, x)
            check_dominated(CHANNELS[c], load, rate, self.dominator(c, load), t)
            check_dominated(CHANNELS[c], load, rate, float(bound[j]), t)
            accepted[n] = vs[j] < rate
        return live[accepted], xs[accepted]


def frozen_rates(model: ModelSpec, ode: OdeSolution, N: int,
                 rates: Optional[TildeRates] = None) -> TildeRates:
    """``rates`` if it is the ``TildeRates`` of ``model`` and ``ode``; a new one if None."""
    if rates is None:
        return TildeRates(model, ode, N)
    if rates.model is not model or rates.ode is not ode:
        raise ValueError("rates must be the TildeRates of this model and limit solution")
    return rates


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def simulate_tilde(model: ModelSpec, xi0: PopulationState, N: int, T: float,
                   ode: OdeSolution, seed,
                   rates: Optional[TildeRates] = None) -> PathRecord:
    """Superposed independent-individuals path as an aggregate record.

    One individual per initial host plus Poisson immigrants (rate N
    times the frozen immigration evaluator, realized by thinning), all
    advanced in lockstep rounds on one generator (draw order in the
    module docstring).  Baseline moves and death are time-homogeneous
    and drawn exactly; the frozen interaction move and excess-death
    rates are thinned against their dominators.  Death ends an
    individual (the cemetery never appears in any count).  ``rates``,
    the ``TildeRates`` of ``model`` and ``ode``, lets the replicas of
    one check share its tables; it changes no path.
    """
    if ode.blow_up or ode.t_end < T - 1e-12:
        raise ValueError("the limit solution must span [0, T] without blow-up")
    rates = frozen_rates(model, ode, N, rates)
    rng = np.random.default_rng(seed)
    base, inter = model.baseline, model.interaction
    dense0 = xi0.to_dense()
    n_init = xi0.total_hosts

    # immigration clock: candidates of the dominating Poisson process
    arrivals, entry = np.zeros(0), np.zeros(0, dtype=np.int64)
    if rates.beta_dom > 0.0:
        arrivals = np.sort(rng.random(rng.poisson(N * rates.beta_dom * T))) * T
        v = rng.random(arrivals.size) * rates.beta_dom
        hit, xs = rates.accepts(np.full(arrivals.size, IMMIGRATION),
                                np.full(arrivals.size, -1), arrivals, v)
        arrivals = arrivals[hit]
        entry = np.array([inter.beta_sample(x, rng) for x in xs], dtype=np.int64)

    ids = np.arange(n_init + arrivals.size)
    # per round: time, individual, class, load, new load, jumped
    rounds = [(arrivals, ids[n_init:], np.full(arrivals.size, _IMMIGRATION_CLASS),
               np.full(arrivals.size, -1), entry, np.ones(arrivals.size, dtype=bool))]
    # the individuals still running, in index order: index, load, clock
    act = ids
    cur = np.concatenate([np.repeat(np.arange(dense0.size), dense0), entry])
    clock = np.concatenate([np.zeros(n_init), arrivals])
    top = int(cur.max(initial=0))
    finished = [np.zeros(0, dtype=np.int64)]      # loads of the individuals alive at T
    while act.size:
        row = rates.per_load(top)[cur]
        t = clock + rng.standard_exponential(act.size) * row[:, 4]
        u = rng.random(act.size) * row[:, 3]
        cls = (u[:, None] >= row[:, :3]).sum(axis=1)
        running = t <= T
        jumped = running & (cls < 2)
        thin = (running & (cls >= 2)).nonzero()[0]
        hit, xs = thin, ()
        if thin.size:
            # classes 2 and 3 are the channels MOVE and DEATH, whose
            # dominators sit in table columns 5 and 6
            kinds = cls[thin]
            v = rng.random(thin.size) * row[thin, kinds + 3]
            hit, xs = rates.accepts(kinds - 2, cur[thin], t[thin], v)
            hit = thin[hit]
            jumped[hit] = True
        to = np.where(jumped & _CLASS_DIES[cls], -1, cur)
        for j in (jumped & (cls == 0)).nonzero()[0].tolist():
            to[j] = target = base.sample_exit(int(cur[j]), float(u[j]), 0.0)
            top = max(top, target)
        for j, x in zip(hit.tolist(), xs):
            if cls[j] == 2:
                to[j] = target = int(inter.alpha_sample(int(cur[j]), x, rng))
                top = max(top, target)
        rounds.append((t, act, cls, cur, to, jumped))
        finished.append(cur[~running])
        keep = running & (to >= 0)
        act, cur, clock = act[keep], to[keep], t[keep]

    times, who, cls, lfrom, lto, jumped = (np.concatenate(col) for col in zip(*rounds))
    hit = jumped.nonzero()[0]
    hit = hit[np.lexsort((who[hit], times[hit]))]
    final = np.bincount(np.concatenate(finished))
    return PathRecord(model.name + "~", N, T, seed if isinstance(seed, int) else -1, xi0,
                      times[hit], _CLASS_KIND[cls[hit]], lfrom[hit], lto[hit],
                      PopulationState.from_dense(final))


def _replica_counts(model: ModelSpec, xi0: PopulationState, N: int, T: float,
                    ode: OdeSolution, replicas: int, seed, ts: Sequence[float],
                    width: int) -> Iterator[np.ndarray]:
    """Per replica, in spawn order: its float64 counts at ``ts``.

    ``simulate_tilde`` is looked up as a module global at every call, so
    wrappers installed on ``tilde.simulate_tilde`` see every replica.
    The replicas share one ``TildeRates``, whose segment bounds are
    filled once for all of them.
    """
    rates = TildeRates(model, ode, N)
    for child in _seed_sequence(seed).spawn(replicas):
        path = simulate_tilde(model, xi0, N, T, ode, child, rates=rates)
        yield path.counts_at(ts, width).astype(np.float64)


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
    bc = bound_constants(model, max(ode.M_T, 1.0), max(ode.G_T, 1.0))
    M = max(ode.M_T, 1.0)
    bound = (l11_norm(xi0.to_dense()) / N + T * (e.b10 + e.b11(0.0) * M)) \
        * math.exp((model.baseline.w + bc.a0_star + bc.a1_star * M) * T)
    grid = np.linspace(0.0, T, n_grid)
    acc = np.zeros(n_grid)
    for counts in _replica_counts(model, xi0, N, T, ode, replicas, seed, grid, 1):
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
    for counts in _replica_counts(model, xi0, N, T, ode, replicas, seed, ts, max_load + 1):
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
    for r, counts in enumerate(replays):
        counts[:, : limit.shape[1]] -= limit
        dists[r] = np.abs(counts).sum(axis=1)
        worst = dists[r].max()
        for K, thr in thresholds.items():
            exceed[K] += worst > thr
    mean = dists.mean(axis=0)
    se = dists.std(axis=0, ddof=1) / math.sqrt(replicas)
    freq = {K: exceed[K] / replicas for K in tail_K}
    return ConcentrationReport(grid, mean, se, bound, thresholds, freq, replicas)
