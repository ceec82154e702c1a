"""Exact event-driven simulation of the interacting population process.

Direct stochastic simulation: after every jump the per-load channel
aggregates are recomputed from the current state (state-dependent rates
move with the density x = xi / N, so cached channel rates would have no
validity window).  The loop runs on Python scalars: the counts, the
grown per-load baseline exit rates and the channel table are lists, and
the total is summed in numpy's pairwise order, so every rate and
comparison is an array loop's.  The one per-jump array is x, which the
model's callbacks receive.

Randomness contract: one generator per run seeds everything.  Per event
the draws are consumed in a fixed order: (1) the exponential waiting
time, (2) one uniform selecting the channel, (3) for baseline events
one uniform splitting moves/death within the load, (4) the model's
target draws for interaction moves or immigration.  Identical
(model, xi0, N, T, seed) therefore reproduce the path bit for bit; the
scalar loop consumes exactly the draws of the array loop it replaced.

``PathRecord.counts_at`` is the one replay that reads a path's counts
at chosen times; ``sup_l1_error`` streams every state through the same
per-jump delta scatter.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Optional

import numpy as np

from .ode import OdeSolution
from .rates import EventKind, ModelSpec, _check_rate
from .state import PopulationState

EVENT_CAP_DEFAULT = 10_000_000
# query rows per density_many call in sup_l1_error: the chunk's float
# temporaries (rows x (J + 1)) then stay within a typical L2 cache
_SWEEP_CHUNK = 512

_KIND_ORDER = (
    EventKind.BASELINE_MOVE,
    EventKind.INTERACTION_MOVE,
    EventKind.IMMIGRATION,
    EventKind.BASELINE_DEATH,
    EventKind.INTERACTION_DEATH,
)
_KIND_INDEX = {k: i for i, k in enumerate(_KIND_ORDER)}
_BASE_MOVE, _INTERACTION_MOVE, _IMMIGRATION, _BASE_DEATH, _INTERACTION_DEATH = range(len(_KIND_ORDER))


@dataclass
class PathRecord:
    """One realized trajectory: ordered jumps plus endpoint states.

    ``load_from`` is -1 for immigration events, ``load_to`` is -1 for
    deaths.  ``counts_at``, the one replay for time queries, adds the
    per-jump deltas to ``initial`` in exact integer arithmetic, so
    replaying to T reproduces ``final``.
    """

    model_name: str
    N: int
    T: float
    seed: int
    initial: PopulationState
    times: np.ndarray
    kinds: np.ndarray        # indices into _KIND_ORDER
    load_from: np.ndarray
    load_to: np.ndarray
    final: PopulationState

    @property
    def n_jumps(self) -> int:
        return int(self.times.size)

    def kind(self, k: int) -> EventKind:
        return _KIND_ORDER[self.kinds[k]]

    def _width(self, width: int) -> int:
        return max(width, self.initial.max_load + 1, int(self.load_to.max(initial=0)) + 1)

    def _scatter_jumps(self, rows: np.ndarray, jumps: np.ndarray, at: np.ndarray) -> None:
        """Scatter into rows ``at``: -1 at ``load_from``, +1 at ``load_to``, skipping -1."""
        for loads, sign in ((self.load_from[jumps], -1), (self.load_to[jumps], 1)):
            hit = loads >= 0
            np.add.at(rows, (at[hit], loads[hit]), sign)

    def counts_at(self, ts, width: int = 1) -> np.ndarray:
        """Counts right after every jump at or before each time of ``ts``.

        One int64 row per query time, in the order of ``ts``, at least
        ``width`` wide and wide enough for every load the path visits.
        Memory grows with ``len(ts)``, not with the path: the jumps are
        scattered into one row per sorted query time, then summed up.
        """
        order = np.argsort(ts)
        ts = np.asarray(ts, dtype=np.float64)[order]     # a nan sorts last
        if ts.size and not 0.0 <= ts[0] <= ts[-1] <= self.T:
            raise ValueError(f"query times outside [0, {self.T}]")
        ks = np.searchsorted(self.times, ts, side="right")
        rows = np.zeros((ts.size + 1, self._width(width)), dtype=np.int64)
        rows[0] = self.initial.to_dense(rows.shape[1])
        jumps = np.arange(ks[-1] if ks.size else 0)
        self._scatter_jumps(rows, jumps, np.searchsorted(ks, jumps, side="right") + 1)
        np.cumsum(rows, axis=0, out=rows)
        return rows[1:][np.argsort(order)]

    def write_csv(self, path, header_extra: str = "") -> None:
        with open(path, "w", newline="") as fh:
            extra = f" {header_extra}" if header_extra else ""
            fh.write(f"# model={self.model_name} N={self.N} T={self.T!r} seed={self.seed}{extra}\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["jump_index", "time", "event_kind", "load_from", "load_to"])
            for k in range(self.n_jumps):
                lf = int(self.load_from[k])
                lt = int(self.load_to[k])
                w.writerow([k, repr(float(self.times[k])), self.kind(k).value,
                            "" if lf < 0 else lf, "" if lt < 0 else lt])


class CapExceeded(RuntimeError):
    """Event-count cap hit: a mis-specified model or runaway parameters.

    Non-explosiveness is guaranteed under the standing growth
    hypotheses, so hitting the cap is an error, not a truncation; the
    partial path is attached for diagnosis.
    """

    def __init__(self, partial: PathRecord, cap: int):
        t = partial.times[-1] if partial.n_jumps else 0.0
        super().__init__(f"event cap {cap} exceeded at t = {t:.6g}")
        self.partial = partial
        self.cap = cap


def _pairwise_sum(v: list, lo: int = 0, n: Optional[int] = None) -> float:
    """numpy's float64 sum of ``v[lo:lo + n]``, added block for block.

    Below 8 entries left to right, up to 128 in 8 lanes added pairwise and
    then the rest in order, above that two halves, the first a multiple of 8.
    The builtin ``sum`` would not match: it compensates from Python 3.12 on.
    """
    n = len(v) if n is None else n
    if n < 8:
        return reduce(add, v[lo:lo + n], 0.0)
    if n <= 128:
        stop = lo + n - n % 8
        r = [reduce(add, v[lo + j:stop:8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, v[stop:lo + n], res)
    n2 = n // 2 - n // 2 % 8
    return _pairwise_sum(v, lo, n2) + _pairwise_sum(v, lo + n2, n - n2)


def simulate(model: ModelSpec, xi0: PopulationState, N: int, T: float,
             seed, event_cap: int = EVENT_CAP_DEFAULT) -> PathRecord:
    """Statistically exact realization of the process over [0, T].

    Waiting times are exponential at the current total rate; the event
    channel is drawn proportionally to its rate; unbounded target laws
    are resolved through the model's samplers.  Raises ``CapExceeded``
    (with the partial path attached) if the jump count passes the cap.
    """
    if N < 1 or T < 0:
        raise ValueError("require N >= 1 and T >= 0")
    rng = np.random.default_rng(seed)
    seed_repr = seed if isinstance(seed, int) else -1
    base = model.baseline
    inter = model.interaction

    counts: list[int] = xi0.to_dense(max(xi0.max_load + 1, 1)).tolist()
    exit_per_host: list[float] = []     # astar + dbar per load
    dbar: list[float] = []
    times: list[float] = []
    kinds: list[int] = []
    lfrom: list[int] = []
    lto: list[int] = []

    def finish() -> PathRecord:
        return PathRecord(
            model.name, N, T, seed_repr, xi0,
            np.array(times), np.array(kinds, dtype=np.int8),
            np.array(lfrom, dtype=np.int64), np.array(lto, dtype=np.int64),
            PopulationState.from_dense(counts),
        )

    t = 0.0
    while True:
        if len(times) >= event_cap:
            raise CapExceeded(finish(), event_cap)
        top = len(counts) - 1
        while top and not counts[top]:
            top -= 1
        x = np.array(counts[: top + 1], dtype=np.float64) / N
        if top >= len(dbar):
            dbar = base.dbar_array(top).tolist()
            exit_per_host = (base.alpha_star_array(top) + dbar).tolist()

        # channel table: (kind, load) and rate; baseline exits aggregated per load
        channels: list[tuple[int, int]] = []
        ch_rate: list[float] = []
        for i in range(top + 1):
            c = counts[i]
            if not c:
                continue
            exit_rate = c * exit_per_host[i]
            if exit_rate > 0.0:
                channels.append((-1, i))  # baseline group, split after selection
                ch_rate.append(exit_rate)
            if inter.alpha_loads is None or i in inter.alpha_loads:
                a = _check_rate("alpha_total", i, inter.alpha_total_at(i, x))
                if a > 0.0:
                    channels.append((_INTERACTION_MOVE, i))
                    ch_rate.append(c * a)
            if not inter.delta_zero:
                d = _check_rate("delta", i, inter.delta_at(i, x))
                if d > 0.0:
                    channels.append((_INTERACTION_DEATH, i))
                    ch_rate.append(c * d)
        if not inter.beta_zero:
            b = _check_rate("beta_total", -1, inter.beta_total_at(x))
            if b > 0.0:
                channels.append((_IMMIGRATION, -1))
                ch_rate.append(N * b)

        total = _pairwise_sum(ch_rate)
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > T:
            break

        u = rng.random() * total
        pick = min(bisect_right(list(accumulate(ch_rate)), u), len(ch_rate) - 1)
        kind_idx, i = channels[pick]

        if kind_idx == -1:
            # split the baseline exit of load i into its moves and death
            chosen = base.sample_exit(i, rng.random() * exit_per_host[i], dbar[i])
            if chosen is None:
                kind_idx, lf, lt = _BASE_DEATH, i, -1
            else:
                kind_idx, lf, lt = _BASE_MOVE, i, chosen
        elif kind_idx == _INTERACTION_MOVE:
            lf, lt = i, int(inter.alpha_sample(i, x, rng))
        elif kind_idx == _IMMIGRATION:
            lf, lt = -1, int(inter.beta_sample(x, rng))
        else:
            lf, lt = i, -1

        if lf >= 0:
            counts[lf] -= 1
        if lt >= 0:
            if lt >= len(counts):
                counts.extend([0] * (lt + 1 - len(counts)))
            counts[lt] += 1
        times.append(t)
        kinds.append(kind_idx)
        lfrom.append(lf)
        lto.append(lt)

    return finish()


@dataclass(frozen=True)
class SupL1Error:
    """Sup of the host-norm deviation, with the discretization slack.

    The stochastic path is exactly piecewise constant, so the sup is
    evaluated at both one-sided limits of every jump plus a uniform
    refinement grid between jumps; the only unobserved motion is the
    limit trajectory's within a refinement gap, bounded by
    gap * (max drift host norm) and reported as ``slack``.
    """

    value: float
    slack: float

    def __float__(self) -> float:
        return self.value


def sup_l1_error(path: PathRecord, ode: OdeSolution, N: int,
                 refine: int = 256) -> SupL1Error:
    """Approximate sup_t || N^{-1} X(t) - x(t) ||_1 along the path.

    The path has n_jumps + 1 states; state s holds from jump s - 1 (or
    0) to jump s (or T).  It is compared with the limit trajectory at
    its two ends, which are the one-sided limits at the jumps, and at
    the refinement points a + m T / refine strictly inside its interval.
    The replay works in arrays: the count rows are a cumulative sum of
    the per-jump +-1 deltas, and each chunk of at most about
    ``_SWEEP_CHUNK`` query rows takes one ``density_many`` call, so
    memory stays bounded on long paths.  The evaluation points and the
    arithmetic are those of a scalar sweep, so the result is the same
    bit for bit.
    """
    if abs(path.T - ode.T) > 1e-12:
        raise ValueError(f"horizon mismatch: path T = {path.T}, ode T = {ode.T}")
    counts = path.initial.to_dense(path._width(ode.J + 1))

    T = float(path.T)
    n_states = path.n_jumps + 1
    times = path.times.astype(np.float64)
    starts = np.concatenate(([0.0], times))
    ends = np.concatenate((times, [T]))
    grid_gap = T / refine if refine > 0 else T
    if grid_gap > 0:
        n_pts = np.maximum(np.floor((ends - starts) / grid_gap), 0).astype(np.int64)
    else:
        n_pts = np.zeros(n_states, dtype=np.int64)
    row_bound = np.cumsum(n_pts + 2)

    sup = 0.0
    max_gap = 0.0
    s0 = 0
    while s0 < n_states:
        before = int(row_bound[s0 - 1]) if s0 else 0
        s1 = max(s0 + 1, int(np.searchsorted(row_bound, before + _SWEEP_CHUNK, side="right")))

        # count rows of states s0..s1-1, plus state s1 carried to the next chunk
        last = min(s1, n_states - 1)
        rows = np.zeros((last - s0 + 1, counts.size), dtype=np.int64)
        rows[0] = counts
        jumps = np.arange(s0, last)
        path._scatter_jumps(rows, jumps, jumps - s0 + 1)
        np.cumsum(rows, axis=0, out=rows)
        counts = rows[-1]
        rows = rows[: s1 - s0]

        # query times per state: start, refinement points, end
        a, b, m_max = starts[s0:s1], ends[s0:s1], n_pts[s0:s1]
        owner = np.repeat(np.arange(s1 - s0), m_max)
        m = np.arange(owner.size) - np.repeat(np.cumsum(m_max) - m_max, m_max) + 1
        u = a[owner] + m * grid_gap
        inside = u < b[owner]       # a prefix of each state's m = 1, 2, ...
        owner, m, u = owner[inside], m[inside], u[inside]
        per_state = np.bincount(owner, minlength=s1 - s0) + 2
        first = np.cumsum(per_state) - per_state
        qt = np.empty(int(per_state.sum()))
        qt[first] = a
        qt[first + per_state - 1] = b
        qt[first[owner] + m] = u

        x = ode.density_many(qt)
        diff = np.repeat(rows.astype(np.float64) / N, per_state, axis=0)
        diff[:, : x.shape[1]] -= x
        sup = max(sup, float(np.abs(diff).sum(axis=1).max()))
        # consecutive query times of one state are the swept gaps; across
        # states the end of one and the start of the next coincide
        max_gap = max(max_gap, float(np.diff(qt).max()))
        s0 = s1

    slack = max_gap * ode.drift_l1_bound()
    return SupL1Error(sup, slack)
