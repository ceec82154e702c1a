"""Transition-rate engine: model specification, rate evaluation, constants.

A model has two layers:

  - a state-independent baseline (per-host within-host moves and host
    death), which by itself would make hosts evolve independently, and
  - state-dependent interaction rates (infection moves, immigration,
    excess death) evaluated at the per-capita density x = xi / N.

This module also computes every explicitly computable constant of the
theory (Lipschitz constant of the interaction drift, moment/coupling
bound constants) and provides sampled numerical certificates for the
growth and Lipschitz hypotheses the theory relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

import numpy as np
from scipy.linalg import expm

from .state import l1_norm, l11_norm


class ModelEvaluationError(RuntimeError):
    """A rate evaluator produced a nonfinite or negative value."""

    def __init__(self, kind: str, load: int, value: float):
        super().__init__(f"invalid rate {value!r} from {kind} evaluator at load {load}")
        self.kind = kind
        self.load = load
        self.value = value


# ---------------------------------------------------------------------------
# baseline generator
# ---------------------------------------------------------------------------

class BaselineGenerator:
    """State-independent within-host dynamics plus host death.

    ``moves(i)`` returns the finite list of (target load j != i, rate)
    pairs out of load i; ``death(i)`` the per-host death rate.  The
    declared growth envelope must satisfy

        alpha_star(i) + death(i) <= m1 * (i + 1)**m2

    (checked by ``check_growth``), and ``w`` bounds the exponential
    growth rate of the (load + 1) moment of the within-host chain.
    """

    def __init__(
        self,
        moves: Callable[[int], Iterable[tuple[int, float]]],
        death: Callable[[int], float],
        m1: float,
        m2: float,
        w: float = 0.0,
    ):
        if m1 < 1 or m2 < 1:
            raise ValueError("growth constants require m1 >= 1 and m2 >= 1")
        if w < 0:
            raise ValueError("drift bound w must be >= 0")
        self._moves = moves
        self._death = death
        self.m1 = float(m1)
        self.m2 = float(m2)
        self.w = float(w)
        # lazily grown per-load tables
        self._targets: list[np.ndarray] = []
        self._rates: list[np.ndarray] = []
        self._alpha_star: list[float] = []
        self._dbar: list[float] = []

    def _ensure(self, upto: int) -> None:
        for i in range(len(self._targets), upto + 1):
            pairs = list(self._moves(i))
            targets = np.array([int(j) for j, _ in pairs], dtype=np.int64)
            rates = np.array([float(r) for _, r in pairs], dtype=np.float64)
            if np.any(targets == i):
                raise ValueError(f"baseline move {i} -> {i} is not a transition")
            if np.any(targets < 0) or np.any(rates < 0) or not np.all(np.isfinite(rates)):
                raise ModelEvaluationError("baseline-move", i, float(rates.min()) if rates.size else 0.0)
            d = float(self._death(i))
            if d < 0 or not math.isfinite(d):
                raise ModelEvaluationError("baseline-death", i, d)
            self._targets.append(targets)
            self._rates.append(rates)
            self._alpha_star.append(float(rates.sum()))
            self._dbar.append(d)

    def move_table(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        self._ensure(i)
        return self._targets[i], self._rates[i]

    def sample_exit(self, i: int, u: float, death: float) -> Optional[int]:
        """Split a baseline exit of load i by one scaled uniform.

        ``u`` is uniform on [0, alpha_star(i) + death): the moves fill
        [0, alpha_star(i)) in table order and the rest is death, which
        returns None.  With ``death == 0`` a ``u`` that lands past the
        accumulated move rates by rounding takes the last move instead.
        """
        targets, rates = self.move_table(i)
        acc = 0.0
        for j, r in zip(targets, rates):
            acc += float(r)
            if u < acc:
                return int(j)
        if death == 0.0 and targets.size:
            return int(targets[-1])  # guards the last-ulp rounding gap
        return None

    def alpha_star(self, i: int) -> float:
        """Total baseline move rate out of load i."""
        self._ensure(i)
        return self._alpha_star[i]

    def dbar(self, i: int) -> float:
        self._ensure(i)
        return self._dbar[i]

    def alpha_star_array(self, upto: int) -> np.ndarray:
        self._ensure(upto)
        return np.array(self._alpha_star[: upto + 1])

    def dbar_array(self, upto: int) -> np.ndarray:
        self._ensure(upto)
        return np.array(self._dbar[: upto + 1])

    def matrix(self, J: int) -> np.ndarray:
        """Truncated generator on loads 0..J.

        Moves with target above J are dropped, so row sums may be
        strictly negative even without death: that deficit is the flow
        into the cemetery plus the truncation loss.
        """
        self._ensure(J)
        Q = np.zeros((J + 1, J + 1))
        for i in range(J + 1):
            t, r = self._targets[i], self._rates[i]
            keep = t <= J
            np.add.at(Q[i], t[keep], r[keep])
            Q[i, i] = -(self._alpha_star[i] + self._dbar[i])
        return Q


# ---------------------------------------------------------------------------
# interaction rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Envelopes:
    """Declared interaction envelope constants and monotone functions.

    ``a00``/``a10`` bound the unweighted and (l+1)-weighted interaction
    move rates at the zero density, ``b10`` the weighted immigration at
    zero, ``d0`` the excess death at zero.  The callables bound the
    corresponding Lipschitz moduli as nondecreasing functions of the
    smaller l11 norm of the two arguments.
    """

    a00: float = 0.0
    a10: float = 0.0
    b10: float = 0.0
    d0: float = 0.0
    a01: Callable[[float], float] = lambda z: 0.0
    a11: Callable[[float], float] = lambda z: 0.0
    b01: Callable[[float], float] = lambda z: 0.0
    b11: Callable[[float], float] = lambda z: 0.0
    d1: Callable[[float], float] = lambda z: 0.0

    def alpha_dominator(self, g: float) -> float:
        """Bound on the total interaction move rate while the host norm stays <= g."""
        return self.a00 + self.a01(0.0) * g

    def delta_dominator(self, g: float) -> float:
        return self.d0 + self.d1(0.0) * g

    def beta_dominator(self, g: float) -> float:
        """Bound on the per-capita total immigration rate while the host norm stays <= g."""
        return self.b10 + self.b01(0.0) * g


def _pos(x: np.ndarray) -> np.ndarray:
    # rate evaluators see the positive part of their argument
    if x.size and x.min() < 0.0:
        return np.maximum(x, 0.0)
    return x


@dataclass(frozen=True)
class InteractionSpec:
    """State-dependent rate evaluators over a dense density vector.

    All evaluators receive a dense nonnegative float array (the engine
    applies the positive part before dispatch).  ``alpha_sample`` and
    ``beta_sample`` draw target loads from the conditional target law,
    consuming the supplied generator; target supports may be unbounded,
    which is why totals and samplers, not matrices, form the contract.
    ``alpha_pointwise``/``beta_pointwise`` give single entries exactly
    and back the coupled construction and the condition checkers.

    Optional fields:
      - ``alpha_loads``: loads that can have any interaction move at all
        (None means every load); used to skip dominated channels.
      - ``delta_zero``/``beta_zero``: structurally zero components.
      - ``alpha_inflow``: vectorized per-target inflow profile
        sum_l x^l alpha_{l i}(x) for i = 0..J (defaults to a pointwise loop).
      - ``beta_profile``/``delta_profile``: vectorized per-load views.
      - ``alpha_tail_l11``/``beta_tail_l11``: bounds on the (l+1)-weighted
        rate mass above a truncation level, used as check slack.
    """

    alpha_total: Callable[[int, np.ndarray], float]
    alpha_sample: Callable[[int, np.ndarray, np.random.Generator], int]
    alpha_pointwise: Callable[[int, int, np.ndarray], float]
    beta_total: Callable[[np.ndarray], float]
    beta_sample: Callable[[np.ndarray, np.random.Generator], int]
    beta_pointwise: Callable[[int, np.ndarray], float]
    delta: Callable[[int, np.ndarray], float]
    envelopes: Envelopes
    alpha_loads: Optional[frozenset[int]] = None
    delta_zero: bool = False
    beta_zero: bool = False
    alpha_inflow: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    alpha_row: Optional[Callable[[int, np.ndarray, int], np.ndarray]] = None
    beta_profile: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    delta_profile: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    alpha_tail_l11: Optional[Callable[[int, np.ndarray, int], float]] = None
    beta_tail_l11: Optional[Callable[[np.ndarray, int], float]] = None

    def alpha_total_at(self, i: int, x: np.ndarray) -> float:
        if self.alpha_loads is not None and i not in self.alpha_loads:
            return 0.0
        return float(self.alpha_total(i, _pos(x)))

    def delta_at(self, i: int, x: np.ndarray) -> float:
        if self.delta_zero:
            return 0.0
        return float(self.delta(i, _pos(x)))

    def beta_total_at(self, x: np.ndarray) -> float:
        if self.beta_zero:
            return 0.0
        return float(self.beta_total(_pos(x)))

    def alpha_pointwise_at(self, i: int, l: int, x: np.ndarray) -> float:
        if self.alpha_loads is not None and i not in self.alpha_loads:
            return 0.0
        return float(self.alpha_pointwise(i, l, _pos(x)))

    def beta_pointwise_at(self, i: int, x: np.ndarray) -> float:
        if self.beta_zero:
            return 0.0
        return float(self.beta_pointwise(i, _pos(x)))

    def alpha_row_at(self, i: int, x: np.ndarray, L: int) -> np.ndarray:
        """Interaction move rates alpha_{i l}(x) for l = 0..L (entry i is 0)."""
        if self.alpha_loads is not None and i not in self.alpha_loads:
            return np.zeros(L + 1)
        x = _pos(x)
        if self.alpha_row is not None:
            return np.asarray(self.alpha_row(i, x, L), dtype=np.float64)
        out = np.array([self.alpha_pointwise(i, l, x) if l != i else 0.0
                        for l in range(L + 1)])
        return out

    def alpha_inflow_at(self, x: np.ndarray, J: int) -> np.ndarray:
        """Per-target inflow sum_l x^l alpha_{l i}(x), i = 0..J."""
        x = _pos(x)
        if self.alpha_inflow is not None:
            return np.asarray(self.alpha_inflow(x, J), dtype=np.float64)
        out = np.zeros(J + 1)
        for l in np.nonzero(x)[0]:
            if self.alpha_loads is not None and int(l) not in self.alpha_loads:
                continue
            for i in range(J + 1):
                if i != l:
                    out[i] += x[l] * self.alpha_pointwise(int(l), i, x)
        return out

    def beta_profile_at(self, x: np.ndarray, J: int) -> np.ndarray:
        if self.beta_zero:
            return np.zeros(J + 1)
        x = _pos(x)
        if self.beta_profile is not None:
            return np.asarray(self.beta_profile(x, J), dtype=np.float64)
        return np.array([self.beta_pointwise(i, x) for i in range(J + 1)])

    def delta_profile_at(self, x: np.ndarray, J: int) -> np.ndarray:
        if self.delta_zero:
            return np.zeros(J + 1)
        x = _pos(x)
        if self.delta_profile is not None:
            return np.asarray(self.delta_profile(x, J), dtype=np.float64)
        return np.array([self.delta(i, x) for i in range(J + 1)])


@dataclass(frozen=True)
class ModelSpec:
    """A complete model: baseline generator plus interaction evaluators."""

    name: str
    baseline: BaselineGenerator
    interaction: InteractionSpec


# ---------------------------------------------------------------------------
# event kinds
# ---------------------------------------------------------------------------

class EventKind(Enum):
    BASELINE_MOVE = "baseline_move"
    INTERACTION_MOVE = "interaction_move"
    IMMIGRATION = "immigration"
    BASELINE_DEATH = "baseline_death"
    INTERACTION_DEATH = "interaction_death"


def _check_rate(kind: str, load: int, rate: float) -> float:
    if not math.isfinite(rate) or rate < 0:
        raise ModelEvaluationError(kind, load, rate)
    return rate


# ---------------------------------------------------------------------------
# computable constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundConstants:
    """The constants of the moment bound and the coupling's compensator bound."""

    a0_star: float
    a1_star: float
    H1: float
    H2: float


def bound_constants(model: ModelSpec, M_T: float, G_T: float) -> BoundConstants:
    """Evaluate the bound constants for a trajectory with sup norms (M_T, G_T)."""
    if M_T < 1 or G_T < 1:
        raise ValueError("M_T and G_T must be >= 1")
    e = model.interaction.envelopes
    a0_star = e.a10 - e.a00
    a1_star = e.a11(0.0) - e.a01(0.0)
    H1 = G_T * e.a01(M_T) + e.b01(M_T) + G_T * e.d1(M_T)
    H2 = e.a01(M_T) + e.d1(M_T)
    return BoundConstants(a0_star, a1_star, H1, H2)


# ---------------------------------------------------------------------------
# numerical certificates for the standing hypotheses
# ---------------------------------------------------------------------------

@dataclass
class ConditionRow:
    condition: str
    margin: float       # max lhs/rhs ratio, or lhs - rhs where a ratio is meaningless
    passed: bool
    samples: int
    note: str = ""


@dataclass
class GrowthReport:
    """Growth-envelope check over loads 0..i_max plus the column bound scan."""

    ok: bool
    i_max: int
    max_ratio: float
    first_violation: Optional[tuple[int, float, float]]
    column_max: dict[int, float]

    def rows(self) -> list[ConditionRow]:
        note = "" if self.ok else f"first violation at load {self.first_violation[0]}"
        rows = [ConditionRow("growth-envelope", self.max_ratio, self.ok, self.i_max + 1, note)]
        col = max(self.column_max.values()) if self.column_max else 0.0
        rows.append(ConditionRow(
            "column-bound", col, math.isfinite(col), len(self.column_max),
            f"max over source loads <= {self.i_max} only",
        ))
        return rows


def check_growth(model: ModelSpec, i_max: int, j_max: int = 20) -> GrowthReport:
    """Verify alpha_star(i) + dbar(i) <= m1 (i+1)^m2 for i <= i_max.

    Also scans the per-column maxima of the baseline move rates up to
    the horizon (the boundedness-in-the-source-load condition is only
    checkable over a finite range, which the report notes).
    """
    base = model.baseline
    m1, m2 = base.m1, base.m2
    max_ratio = 0.0
    first = None
    for i in range(i_max + 1):
        lhs = base.alpha_star(i) + base.dbar(i)
        rhs = m1 * (i + 1.0) ** m2
        ratio = lhs / rhs
        max_ratio = max(max_ratio, ratio)
        if lhs > rhs * (1 + 1e-12) and first is None:
            first = (i, lhs, rhs)
    column_max: dict[int, float] = {j: 0.0 for j in range(j_max + 1)}
    for i in range(i_max + 1):
        targets, rs = base.move_table(i)
        for j, r in zip(targets, rs):
            if j <= j_max:
                column_max[int(j)] = max(column_max[int(j)], float(r))
    return GrowthReport(first is None, i_max, max_ratio, first, column_max)


@dataclass(frozen=True)
class LipschitzSampleConfig:
    n_pairs: int = 200
    support: int = 12
    magnitude: float = 2.0
    truncation: int = 80
    seed: int = 0
    ratio_tol: float = 1e-9


@dataclass
class LipschitzReport:
    config: LipschitzSampleConfig
    ratios: dict[str, float]
    ok: bool

    def rows(self) -> list[ConditionRow]:
        return [ConditionRow(cond, r, r <= 1.0 + self.config.ratio_tol, self.config.n_pairs)
                for cond, r in sorted(self.ratios.items())]


def _random_density(rng: np.random.Generator, support: int, magnitude: float) -> np.ndarray:
    x = np.zeros(support)
    k = int(rng.integers(1, support + 1))
    loads = rng.choice(support, size=k, replace=False)
    x[loads] = rng.uniform(0.0, magnitude, size=k)
    return x


def check_lipschitz_sampled(model: ModelSpec, config: LipschitzSampleConfig = LipschitzSampleConfig()) -> LipschitzReport:
    """Sampled certificate for the interaction Lipschitz/boundedness conditions.

    Draws random density pairs and compares the truncated rate sums
    against the declared envelopes; infinite target sums are cut at the
    configured truncation with the model's tail bound added to the right
    side.  A sampled check never proves the conditions, it can only
    refute the declared envelopes.
    """
    inter = model.interaction
    e = inter.envelopes
    L = config.truncation
    rng = np.random.default_rng(config.seed)
    ratios = {
        "alpha-lipschitz-l1": 0.0, "alpha-lipschitz-l11": 0.0,
        "beta-lipschitz-l1": 0.0, "beta-lipschitz-l11": 0.0,
        "delta-lipschitz": 0.0,
        "alpha-at-zero-l1": 0.0, "alpha-at-zero-l11": 0.0,
        "beta-at-zero-l11": 0.0, "delta-at-zero": 0.0,
    }

    def update(key: str, lhs: float, rhs: float) -> None:
        if rhs <= 0.0:
            ratio = 0.0 if lhs <= config.ratio_tol else math.inf
        else:
            ratio = lhs / rhs
        ratios[key] = max(ratios[key], ratio)

    zero = np.zeros(config.support)
    i_set = range(config.support)
    w_all = np.arange(1, L + 2, dtype=float)
    for i in i_set:
        az = inter.alpha_row_at(i, zero, L)
        update("alpha-at-zero-l1", float(az.sum()), e.a00)
        update("alpha-at-zero-l11", float(np.dot(az, w_all)), (i + 1) * e.a10)
        update("delta-at-zero", inter.delta_at(i, zero), e.d0)
    bz = inter.beta_profile_at(zero, L)
    update("beta-at-zero-l11", float(np.dot(bz, w_all)), e.b10)

    for _ in range(config.n_pairs):
        x = _random_density(rng, config.support, config.magnitude)
        y = _random_density(rng, config.support, config.magnitude)
        mmin = min(l11_norm(x), l11_norm(y))
        d1n = l1_norm(x - y)
        d11n = l11_norm(x - y)
        for i in i_set:
            ax = inter.alpha_row_at(i, x, L)
            ay = inter.alpha_row_at(i, y, L)
            w = w_all
            diff = np.abs(ax - ay)
            if inter.alpha_tail_l11 is not None:
                tail = inter.alpha_tail_l11(i, x, L) + inter.alpha_tail_l11(i, y, L)
            else:
                tail = 0.0
            update("alpha-lipschitz-l1", float(diff.sum()),
                   e.a01(mmin) * d1n + tail / (L + 2))
            update("alpha-lipschitz-l11", float(np.dot(diff, w)),
                   (i + 1) * e.a11(mmin) * d11n + tail)
            update("delta-lipschitz", abs(inter.delta_at(i, x) - inter.delta_at(i, y)),
                   e.d1(mmin) * d1n)
        bx = inter.beta_profile_at(x, L)
        by = inter.beta_profile_at(y, L)
        bdiff = np.abs(bx - by)
        if inter.beta_tail_l11 is not None:
            btail = inter.beta_tail_l11(x, L) + inter.beta_tail_l11(y, L)
        else:
            btail = 0.0
        update("beta-lipschitz-l1", float(bdiff.sum()), e.b01(mmin) * d1n + btail / (L + 2))
        update("beta-lipschitz-l11", float(np.dot(bdiff, w_all)),
               e.b11(mmin) * d11n + btail)

    ok = all(r <= 1.0 + config.ratio_tol for r in ratios.values())
    return LipschitzReport(config, ratios, ok)


def semigroup_moment(baseline: BaselineGenerator, i: int, t: float, J: int) -> float:
    """First moment sum_j (j+1) p_ij(t) of the within-host chain, truncated at J.

    Solves the truncated forward equations by matrix exponential; flow
    to the cemetery and above the truncation contributes zero, so the
    result is a lower bound on the untruncated moment.
    """
    if J < i:
        raise ValueError(f"truncation J = {J} below initial load {i}")
    if t < 0:
        raise ValueError("t must be >= 0")
    Q = baseline.matrix(J)
    p = expm(Q * t)[i]
    return float(np.dot(p, np.arange(1, J + 2)))
