"""Joint construction of the interacting and independent processes.

One four-component state (Z1, Z2, Z3, Z4) realizes the interacting
process X = Z1 + Z2 and the independent-individuals process
X~ = Z1 + Z3 on a single probability space: Z1 holds still-coupled
pairs, Z2/Z3 the decoupled X-side and X~-side individuals (only their
counts matter, never their pairing), and Z4 counts unmatched
immigrants, dead X~-partners and X~-side deaths of coupled pairs.

Every interaction move, immigration and excess death of a coupled pair
is the basic coupling of two jump rates (Lindvall 1992), realized in one
routine, ``_pair_outcome``, without summing over the (possibly
unbounded) target support: each side proposes from its own rate and
target law, and only the two pointwise rates a (X) and b (X~) at the
realized target are read.  An X-side proposal is matched with
probability min(a, b)/a and otherwise an X-side surplus; an X~-side
proposal is an X~-side surplus with probability (b - a)+/b and
otherwise a ghost.  The X~ side is additionally thinned through
``TildeRates.accepts``, the squeeze that also decides the candidates of
``simulate_tilde``, so both engines share one thinning policy.  Every
surplus decouples one pair and increments the decoupling counter V,
whose compensator intensity is the total pointwise rate mismatch
between the two processes.

Three structural relations are asserted after every event and are hard
errors, never report items: V = Z4 + sum(Z3), sum(Z2) <= Z4 + sum(Z3),
and ||X - X~||_1 <= sum(Z2 + Z3) <= 2 V.

The compensator integral A is taken by one Simpson panel per piece of a
grid that ghosts do not set: a piece ends only at a real event (it is
integrated under the pre-event state), a solver node, tau or T.  Between
real events the integrand moves only with the limit density, a cubic on
each solver segment.  The two-factor compensator bound is checked at
every point where the integrand is evaluated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ode import OdeSolution
from .rates import ModelSpec, bound_constants
from .ssa import EVENT_CAP_DEFAULT
from .state import PopulationState
from .tilde import DEATH, IMMIGRATION, MOVE, TildeRates, frozen_rates

_ROW_MARGIN = 40


class CouplingInvariantError(AssertionError):
    """A structural invariant of the joint construction failed."""


class CoupledCapExceeded(RuntimeError):
    """Candidate-count cap hit in the joint simulation.

    Carries the time reached, the cap, and the real events and ghosts
    (rejected thinning candidates) drawn before it was hit.
    """

    def __init__(self, t: float, event_cap: int, n_events: int, n_ghosts: int):
        super().__init__(f"coupled event cap {event_cap} exceeded at t = {t:.6g} "
                         f"({n_events} events, {n_ghosts} ghosts)")
        self.t = t
        self.event_cap = event_cap
        self.n_events = n_events
        self.n_ghosts = n_ghosts


@dataclass(frozen=True)
class CouplingState:
    """Four-component snapshot: X = Z1 + Z2, X~ = Z1 + Z3, V = Z4 + sum(Z3)."""

    Z1: PopulationState
    Z2: PopulationState
    Z3: PopulationState
    Z4: int


def _intensity(model: ModelSpec, z1: np.ndarray, x: np.ndarray, y: np.ndarray,
               N: int, L: int, x_rows: dict) -> float:
    """Total rate mismatch between densities x and y over the coupled pairs z1.

    Target sums run over loads 0..L.  ``x_rows`` keeps the x-side rows
    (key -1: immigration) across calls until the caller empties it.
    """
    inter = model.interaction
    total = 0.0
    for i in np.nonzero(z1)[0]:
        i = int(i)
        if inter.alpha_loads is None or i in inter.alpha_loads:
            rx = x_rows.get(i)
            if rx is None:
                rx = x_rows[i] = inter.alpha_row_at(i, x, L)
            ry = inter.alpha_row_at(i, y, L)
            total += z1[i] * float(np.abs(rx - ry).sum())
        if not inter.delta_zero:
            total += z1[i] * abs(inter.delta_at(i, x) - inter.delta_at(i, y))
    if not inter.beta_zero:
        bx = x_rows.get(-1)
        if bx is None:
            bx = x_rows[-1] = inter.beta_profile_at(x, L)
        by = inter.beta_profile_at(y, L)
        total += N * float(np.abs(bx - by).sum())
    return total


@dataclass
class CoupledRun:
    """Outcome of one coupled realization.

    ``V_at``/``A_at`` hold the decoupling counter and its compensator
    integral at the requested evaluation times, both stopped at tau (the
    first time the independent side strays host-norm distance 1 from
    the limit trajectory).  ``compensator_bound_ratio`` is the largest
    observed ratio of the compensator intensity to its two-factor bound
    over the quadrature points up to tau, and
    ``compensator_bound_checked`` counts the points where either side
    of that bound is positive.
    """

    model_name: str
    N: int
    T: float
    seed: int
    eval_times: np.ndarray
    V_at: np.ndarray
    A_at: np.ndarray
    tau_N: Optional[float]
    V_T: int
    final: CouplingState
    sup_err_X: float
    sup_err_tilde: float
    n_events: int
    n_ghosts: int
    compensator_bound_ratio: float
    compensator_bound_checked: int
    times: np.ndarray = field(default_factory=lambda: np.array([]))
    V_traj: np.ndarray = field(default_factory=lambda: np.array([]))


# channel codes
_Z1_BASE, _Z2_BASE, _Z3_BASE, _Z3_BDEATH = 0, 1, 2, 3
_Z1_XALPHA, _Z1_YALPHA, _Z2_ALPHA, _Z3_ALPHA = 4, 5, 6, 7
_XBETA, _YBETA = 8, 9
_Z1_XDELTA, _Z1_YDELTA, _Z3_DELTA = 10, 11, 12
# the trajectory-frozen channels, each with the ``TildeRates`` channel it thins as
_FROZEN = {_Z1_YALPHA: MOVE, _Z3_ALPHA: MOVE, _YBETA: IMMIGRATION,
           _Z1_YDELTA: DEATH, _Z3_DELTA: DEATH}
# the paired channels: (kind, proposed by the X~ side)
_PAIRED = {_Z1_XALPHA: (MOVE, False), _Z1_YALPHA: (MOVE, True),
           _XBETA: (IMMIGRATION, False), _YBETA: (IMMIGRATION, True),
           _Z1_XDELTA: (DEATH, False), _Z1_YDELTA: (DEATH, True)}
# the unpaired channels: (component 0, 1 or 2 for Z1, Z2 or Z3, kind), where
# kind None is a baseline exit and MOVE draws from the component's own side
_UNPAIRED = {_Z1_BASE: (0, None), _Z2_BASE: (1, None), _Z3_BASE: (2, None),
             _Z3_BDEATH: (2, DEATH), _Z2_ALPHA: (1, MOVE), _Z3_ALPHA: (2, MOVE),
             _Z3_DELTA: (2, DEATH)}


def _pair_outcome(inter, kind: int, from_y: bool, i: int, x: np.ndarray, y: np.ndarray,
                  dx_i: float, rng: np.random.Generator):
    """One proposal of a paired channel: the basic coupling of two jump rates.

    The target is drawn from the proposing side's law (x, or y when
    ``from_y``): ``alpha_sample`` for a ``MOVE`` of load i,
    ``beta_sample`` for an ``IMMIGRATION``; a ``DEATH`` has none.  a and
    b are the X-side and X~-side pointwise rates at that target (for a
    death, ``dx_i`` and the excess death at y).  One uniform u decides:
    an X-side proposal is matched if u a < min(a, b), else an X-side
    surplus; an X~-side proposal is an X~-side surplus if u b < (b - a)+,
    else a ghost.  Returns ``(target, "matched" | "surplus" | None)``,
    None being the ghost.
    """
    if kind == MOVE:
        l = int(inter.alpha_sample(i, y if from_y else x, rng))
        a, b = inter.alpha_pointwise_at(i, l, x), inter.alpha_pointwise_at(i, l, y)
    elif kind == IMMIGRATION:
        l = int(inter.beta_sample(y if from_y else x, rng))
        a, b = inter.beta_pointwise_at(l, x), inter.beta_pointwise_at(l, y)
    else:
        l, a, b = None, dx_i, inter.delta_at(i, y)
    matched, sx, sy = min(a, b), max(a - b, 0.0), max(b - a, 0.0)
    if abs(matched + sx + sy - max(a, b)) > 1e-9 * (1.0 + a + b) \
            or min(matched, sx, sy) < 0:
        raise CouplingInvariantError("min/surplus decomposition broke")
    if (b if from_y else a) <= 0.0:
        raise CouplingInvariantError("proposed target with zero pointwise rate")
    if from_y:
        return l, ("surplus" if rng.random() * b < sy else None)
    return l, ("matched" if rng.random() * a < matched else "surplus")


def _unpaired_target(code: int, base, inter, i: int, x: np.ndarray, y: np.ndarray,
                     dx_i: float, rng: np.random.Generator) -> Optional[int]:
    """Target load of the individual at load i that an unpaired channel moves.

    None is a death.  A baseline exit splits one scaled uniform over the
    moves and the component's death rate: dbar for Z1, dbar plus the
    excess death ``dx_i`` for Z2, none for Z3, whose baseline death is a
    channel of its own.
    """
    comp, kind = _UNPAIRED[code]
    if kind == DEATH:
        return None
    if kind == MOVE:
        return int(inter.alpha_sample(i, y if comp == 2 else x, rng))
    dbar_i = 0.0 if comp == 2 else base.dbar(i)
    extra = dx_i if comp == 1 else 0.0
    return base.sample_exit(i, rng.random() * (base.alpha_star(i) + dbar_i + extra),
                            dbar_i + extra)


def simulate_coupled(model: ModelSpec, xi0: PopulationState, N: int, T: float,
                     ode: OdeSolution, seed,
                     eval_times: Sequence[float] = (),
                     event_cap: int = EVENT_CAP_DEFAULT,
                     record_trajectory: bool = False,
                     rates: Optional[TildeRates] = None) -> CoupledRun:
    """Exact simulation of the joint process from Z1(0) = xi0.

    Draw order per candidate event: the exponential waiting time, one
    channel-selection uniform, an acceptance uniform for the
    trajectory-frozen channels, then either a paired channel's target
    draw and branch uniform (``_pair_outcome``) or an unpaired channel's
    baseline-exit uniform or target draw (``_unpaired_target``).  A
    matched pair or an unpaired individual then moves within its
    component; a surplus splits the pair into Z2 and Z3, and Z4 counts
    it when no X~ individual lands in Z3.  The acceptance uniform,
    scaled by the channel's global dominator, is decided by
    ``TildeRates.accepts``; its squeeze rejects most ghosts without
    evaluating the frozen rate and makes the decision of plain thinning
    on the same uniform.  tau and the sup errors are read at every
    candidate time and solver node, and tau after every event touching
    the independent side too.  The compensator integral takes one
    three-point Simpson panel per quadrature piece: a piece ends at a
    real event (closed under the pre-event state, before the event
    moves it), a solver node, tau or T, never at a ghost.  An evaluation
    time reads the closed pieces plus a partial panel from the open
    piece's start.  The compensator bound is checked at every quadrature
    point, and ``compensator_bound_checked`` counts those points.  A
    ghost changes no state, so the channel table is rebuilt only after a
    real event; the padded limit density and the compensator intensity
    are memoized per time, and the intensity's X-side rows per load,
    until a real event or a growth of the load arrays clears them.
    ``rates``, the ``TildeRates`` of ``model`` and ``ode``, lets the
    replicas of one study share its tables; it changes no path.
    """
    if ode.blow_up or ode.t_end < T - 1e-12:
        raise ValueError("the limit solution must span [0, T] without blow-up")
    rng = np.random.default_rng(seed)
    seed_repr = seed if isinstance(seed, int) else -1
    inter = model.interaction
    base = model.baseline
    frozen = frozen_rates(model, ode, N, rates)
    alpha_dom_at = frozen.alpha_dom_at
    delta_dom, beta_dom = frozen.delta_dom, frozen.beta_dom

    width = max(xi0.max_load + 1, ode.J + 1)
    z1 = np.zeros(width, dtype=np.int64)
    z1[: xi0.max_load + 1] = xi0.to_dense()
    z2 = np.zeros(width, dtype=np.int64)
    z3 = np.zeros(width, dtype=np.int64)
    z4 = 0

    def grow(n: int):
        nonlocal z1, z2, z3, x, a_x, d_x, width
        if n > width:
            pad = n - width
            z1 = np.concatenate([z1, np.zeros(pad, dtype=np.int64)])
            z2 = np.concatenate([z2, np.zeros(pad, dtype=np.int64)])
            z3 = np.concatenate([z3, np.zeros(pad, dtype=np.int64)])
            x = np.concatenate([x, np.zeros(pad)])
            a_x = np.concatenate([a_x, np.zeros(pad)])
            d_x = np.concatenate([d_x, np.zeros(pad)])
            width = n
            forget()

    @functools.cache
    def y_at(t: float) -> np.ndarray:
        out = np.zeros(width)
        raw = ode.density(t)
        n = min(raw.size, width)
        out[:n] = raw[:n]
        out.setflags(write=False)   # shared by every caller at this t
        return out

    # state-dependent aggregates, refreshed when X = Z1 + Z2 changes
    x = z1.astype(np.float64) / N
    a_x = np.zeros(width)
    d_x = np.zeros(width)
    b_x = 0.0

    def refresh_x():
        nonlocal x, a_x, d_x, b_x
        x = (z1 + z2).astype(np.float64) / N
        a_x = np.zeros(width)
        d_x = np.zeros(width)
        for i in np.nonzero(z1 + z2)[0]:
            i = int(i)
            a_x[i] = inter.alpha_total_at(i, x)
            if not inter.delta_zero:
                d_x[i] = inter.delta_at(i, x)
        b_x = inter.beta_total_at(x)

    refresh_x()

    def build_channels():
        codes: list[int] = []
        loads: list[int] = []
        rates: list[float] = []

        def put(code: int, i: int, r: float):
            if r > 0.0:
                codes.append(code)
                loads.append(i)
                rates.append(r)

        occupied = np.nonzero(z1 + z2 + z3)[0]
        astar = base.alpha_star_array(int(occupied[-1]) if occupied.size else 0)
        dbar = base.dbar_array(int(occupied[-1]) if occupied.size else 0)
        for i in occupied:
            i = int(i)
            ad = alpha_dom_at(i)
            if z1[i]:
                put(_Z1_BASE, i, z1[i] * (astar[i] + dbar[i]))
                put(_Z1_XALPHA, i, z1[i] * a_x[i])
                put(_Z1_YALPHA, i, z1[i] * ad)
                put(_Z1_XDELTA, i, z1[i] * d_x[i])
                put(_Z1_YDELTA, i, z1[i] * delta_dom)
            if z2[i]:
                put(_Z2_BASE, i, z2[i] * (astar[i] + dbar[i] + d_x[i]))
                put(_Z2_ALPHA, i, z2[i] * a_x[i])
            if z3[i]:
                put(_Z3_BASE, i, z3[i] * astar[i])
                put(_Z3_BDEATH, i, z3[i] * dbar[i])
                put(_Z3_ALPHA, i, z3[i] * ad)
                put(_Z3_DELTA, i, z3[i] * delta_dom)
        put(_XBETA, -1, N * b_x)
        put(_YBETA, -1, N * beta_dom)
        rates = np.array(rates)
        return codes, loads, float(rates.sum()), np.cumsum(rates)

    def assert_invariants():
        s2 = int(z2.sum())
        s3 = int(z3.sum())
        if V != z4 + s3:
            raise CouplingInvariantError(f"V = {V} is not Z4 + sum Z3 = {z4 + s3}")
        if s2 > z4 + s3:
            raise CouplingInvariantError(
                f"sum Z2 = {s2} exceeds Z4 + sum Z3 = {z4 + s3}")
        l1_gap = int(np.abs(z2 - z3).sum())
        if l1_gap > s2 + s3 or s2 + s3 > 2 * (z4 + s3):
            raise CouplingInvariantError("decoupling bound on ||X - X~||_1 broke")

    # two-factor compensator bound constants
    bc = bound_constants(model, max(ode.M_T, 1.0), max(ode.G_T, 1.0))

    x_rows: dict = {}

    @functools.cache
    def a_n_at(t: float) -> float:
        # every quadrature point also checks the compensator bound
        nonlocal comp_bound_max, comp_bound_n
        an = _intensity(model, z1, x, y_at(t), N, width - 1 + _ROW_MARGIN, x_rows)
        rhs = (bc.H1 + bc.H2 * err_tilde(t)) * err_x(t)
        if an > 0.0 or rhs > 0.0:
            comp_bound_n += 1
            if rhs > 0.0:
                comp_bound_max = max(comp_bound_max, (an / N) / rhs)
            elif an / N > 1e-12:
                comp_bound_max = math.inf
        return an

    def forget():
        # a ghost changes none of what the memos depend on
        y_at.cache_clear()
        a_n_at.cache_clear()
        x_rows.clear()

    def simpson(t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        mid = 0.5 * (t0 + t1)
        return (t1 - t0) / 6.0 * (a_n_at(t0) + 4.0 * a_n_at(mid) + a_n_at(t1))

    def close_piece(u: float):
        # integrate the open quadrature piece up to u under the current state
        nonlocal A_cum, piece_start
        if tau is None:
            A_cum += simpson(piece_start, u)
        piece_start = u

    def err_x(t: float) -> float:
        return float(np.abs(x - y_at(t)).sum())

    def err_tilde(t: float) -> float:
        return float(np.abs((z1 + z3) / N - y_at(t)).sum())

    eval_times = np.sort(np.asarray(list(eval_times), dtype=np.float64))
    V_at = np.zeros(eval_times.size)
    A_at = np.zeros(eval_times.size)
    next_eval = 0

    tau: Optional[float] = None
    V = 0
    V_tau = 0
    A_cum = 0.0
    piece_start = 0.0
    sup_ex = err_x(0.0)
    sup_et = err_tilde(0.0)
    comp_bound_max = 0.0
    comp_bound_n = 0
    n_events = 0
    n_ghosts = 0
    times: list[float] = []
    v_traj: list[int] = []

    grid_nodes = ode.ts

    codes, loads, total, cum = build_channels()
    t = 0.0
    while True:
        if total <= 0.0:
            t_next = T + 1.0
        else:
            t_next = t + rng.exponential(1.0 / total)
        t_stop = min(t_next, T)

        # sweep the open interval (t, t_stop]: tau scan and sup errors at
        # solver nodes and t_stop, pending evaluation times, and the
        # quadrature pieces that end at a solver node, at tau or at T
        lo = int(np.searchsorted(grid_nodes, t, side="right"))
        hi = int(np.searchsorted(grid_nodes, t_stop, side="right"))
        markers = [(float(u), True) for u in grid_nodes[lo:hi]] + [(t_stop, t_next > T)]
        seg_start = t
        for u, piece_end in markers:
            if u <= seg_start:
                continue
            # evaluation times inside (seg_start, u]
            while next_eval < eval_times.size and eval_times[next_eval] <= u:
                s = float(eval_times[next_eval])
                if s <= seg_start:
                    next_eval += 1
                    continue
                if tau is not None:
                    V_at[next_eval] = V_tau
                    A_at[next_eval] = A_cum
                else:
                    A_at[next_eval] = A_cum + simpson(piece_start, s)
                    V_at[next_eval] = V
                next_eval += 1
            ex, et = err_x(u), err_tilde(u)
            sup_ex = max(sup_ex, ex)
            sup_et = max(sup_et, et)
            if tau is None and (piece_end or et >= 1.0):
                close_piece(u)
                if et >= 1.0:
                    tau = u
                    V_tau = V
            seg_start = u

        if t_next > T:
            break
        t = t_next

        if n_events + n_ghosts >= event_cap:
            raise CoupledCapExceeded(t, event_cap, n_events, n_ghosts)

        u_pick = rng.random() * total
        pick = min(int(np.searchsorted(cum, u_pick, side="right")), len(codes) - 1)
        code = codes[pick]
        i = loads[pick]

        channel = _FROZEN.get(code)
        if channel is not None:
            v = rng.random() * frozen.dominator(channel, i)
            hit, _ = frozen.accepts(np.array([channel]), np.array([i]), np.array([t]),
                                    np.array([v]))
            if not hit.size:
                n_ghosts += 1
                continue

        kind, from_y = _PAIRED.get(code, (None, False))
        if kind is None:
            comp, outcome = _UNPAIRED[code][0], None
            l = _unpaired_target(code, base, inter, i, x, y_at(t), d_x[i], rng)
        else:
            comp = 0
            l, outcome = _pair_outcome(inter, kind, from_y, i, x, y_at(t), d_x[i], rng)
            if outcome is None:
                n_ghosts += 1
                continue
        src = None if kind == IMMIGRATION else i

        # the piece ends under the pre-event state, before any change to it;
        # grow rebinds z1-z3, so they are read after it
        close_piece(t)
        if l is not None:
            grow(l + 1)
        if outcome == "surplus":
            # the pair splits: the proposing side's individual goes to l and
            # the other side's stays at src, X ones into Z2, X~ ones into Z3
            V += 1
            to_x, to_y = (src, l) if from_y else (l, src)
            moves = ((0, src, None), (1, None, to_x), (2, None, to_y))
            if to_y is None:
                z4 += 1
        else:
            # a matched pair, or an unpaired individual, moves from src to l
            moves = ((comp, src, l),)
            if comp == 2 and l is None:
                z4 += 1
        zs = (z1, z2, z3)
        x_changed = tilde_changed = False
        for c, frm, to in moves:
            if frm is None and to is None:
                continue
            if frm is not None:
                zs[c][frm] -= 1
            if to is not None:
                zs[c][to] += 1
            x_changed = x_changed or c != 2
            tilde_changed = tilde_changed or c != 1

        n_events += 1
        forget()
        if x_changed:
            refresh_x()
        codes, loads, total, cum = build_channels()
        assert_invariants()
        if record_trajectory:
            times.append(t)
            v_traj.append(V)

        ex, et = err_x(t), err_tilde(t)
        sup_ex = max(sup_ex, ex)
        sup_et = max(sup_et, et)
        if tau is None and tilde_changed and et >= 1.0:
            tau = t
            V_tau = V

    # evaluation times beyond the last event but within [0, T]
    while next_eval < eval_times.size:
        V_at[next_eval] = V if tau is None else V_tau
        A_at[next_eval] = A_cum
        next_eval += 1

    final = CouplingState(
        PopulationState.from_dense(z1), PopulationState.from_dense(z2),
        PopulationState.from_dense(z3), z4)
    return CoupledRun(
        model.name, N, T, seed_repr, eval_times, V_at, A_at, tau, V, final,
        sup_ex, sup_et, n_events, n_ghosts, comp_bound_max, comp_bound_n,
        np.array(times), np.array(v_traj, dtype=np.int64))


@dataclass
class MartingaleReport:
    """Mean of V(t ^ tau) - integral of the compensator, per check time."""

    eval_times: np.ndarray
    mean: np.ndarray
    std_err: np.ndarray
    replicas: int

    @property
    def ok(self) -> bool:
        # a mean-zero martingale: |mean| within 3 standard errors
        return bool(np.all(np.abs(self.mean) <= 3.0 * self.std_err + 1e-12))


def martingale_balance_check(runs: Sequence[CoupledRun]) -> MartingaleReport:
    """Aggregate V - integral(a) across coupled replicas at their eval times."""
    if not runs:
        raise ValueError("need at least one coupled run")
    ets = runs[0].eval_times
    diffs = np.array([run.V_at - run.A_at for run in runs])
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / math.sqrt(len(runs)) if len(runs) > 1 \
        else np.full(ets.size, np.inf)
    return MartingaleReport(ets, mean, se, len(runs))
