"""Constructors for the host-parasite example models.

Three models share one transmission mechanism: an infectious contact by
a host carrying i parasites transmits the sum of i independent draws
from a per-parasite offspring law F1 (so the transmitted load follows
the i-fold convolution of F1), and a transmission of zero parasites is
an identity event, handled by rejection so that channel totals carry
the (1 - p_{i0}) factor exactly.

  - ``luchsinger_nonlinear``: fixed population, only healthy hosts can
    be infected, parasites die individually, hosts die (and are replaced
    healthy) in catastrophes.
  - ``luchsinger_linear``: infected hosts only, an unlimited pool of
    susceptibles supplies new infections as immigration.
  - ``kretzschmar_modified``: host demography (births discounted by
    load, deaths increasing with load) plus mouthful-style infection at
    a bounded per-contact rate; the per-capita contact rate is damped by
    c + ||x||_1 with c > 0, without which the Lipschitz conditions fail.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Optional

import numpy as np
from scipy import stats

from .rates import BaselineGenerator, Envelopes, InteractionSpec, ModelSpec


class OffspringLaw:
    """Per-parasite transmission law F1 on {0, 1, 2, ...} and its convolutions.

    Families: point mass, Poisson, geometric (failures before the first
    success) and explicit finite tables.  ``conv_*`` methods expose the
    i-fold convolution (the transmitted load of an i-parasite host):
    closed forms for point mass / Poisson / geometric, cached iterated
    convolution for tables.
    """

    def __init__(self, family: str, *, value: int = 0, mean: float = 0.0,
                 p: float = 0.0, probs: Optional[np.ndarray] = None):
        self.family = family
        if family == "point_mass":
            if value < 0:
                raise ValueError("point mass must sit on a nonnegative value")
            self.value = int(value)
            self.mean = float(value)
            self.p0 = 1.0 if value == 0 else 0.0
        elif family == "poisson":
            if mean < 0:
                raise ValueError("Poisson mean must be >= 0")
            self.rate = float(mean)
            self.mean = float(mean)
            self.p0 = math.exp(-self.rate)
        elif family == "geometric":
            if not 0.0 < p <= 1.0:
                raise ValueError("geometric success probability must be in (0, 1]")
            self.p = float(p)
            self.mean = (1.0 - p) / p
            self.p0 = float(p)
        elif family == "table":
            arr = np.asarray(probs, dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0 or np.any(arr < 0):
                raise ValueError("table must be a nonnegative 1-d array")
            if abs(arr.sum() - 1.0) > 1e-12:
                raise ValueError(f"table probabilities sum to {arr.sum()}, not 1")
            self.probs = arr
            self._cum = np.cumsum(arr)
            self.mean = float(np.dot(arr, np.arange(arr.size)))
            self.p0 = float(arr[0])
            self._conv_cache: dict[int, np.ndarray] = {1: arr}
        else:
            raise ValueError(f"unknown offspring family {family!r}")

    @classmethod
    def point_mass(cls, value: int) -> "OffspringLaw":
        return cls("point_mass", value=value)

    @classmethod
    def poisson(cls, mean: float) -> "OffspringLaw":
        return cls("poisson", mean=mean)

    @classmethod
    def geometric(cls, p: float) -> "OffspringLaw":
        return cls("geometric", p=p)

    @classmethod
    def table(cls, probs) -> "OffspringLaw":
        return cls("table", probs=np.asarray(probs, dtype=np.float64))

    def sample_sum(self, i: int, rng: np.random.Generator) -> int:
        """One draw of the sum of i independent F1 variates.

        Poisson and geometric use the closed-form sum distribution (one
        generator draw); a point mass consumes no randomness; tables
        consume exactly i uniforms.
        """
        if i == 0:
            return 0
        if self.family == "point_mass":
            return i * self.value
        if self.family == "poisson":
            return int(rng.poisson(i * self.rate))
        if self.family == "geometric":
            return int(rng.negative_binomial(i, self.p))
        u = rng.random(i)
        return int(np.searchsorted(self._cum, u, side="right").sum())

    def conv_pmf(self, i: int, L: int) -> np.ndarray:
        """pmf of the i-fold convolution on 0..L (exact on that range)."""
        k = np.arange(L + 1)
        if i == 0:
            out = np.zeros(L + 1)
            out[0] = 1.0
            return out
        if self.family == "point_mass":
            out = np.zeros(L + 1)
            if i * self.value <= L:
                out[i * self.value] = 1.0
            return out
        if self.family == "poisson":
            return stats.poisson.pmf(k, i * self.rate)
        if self.family == "geometric":
            return stats.nbinom.pmf(k, i, self.p)
        conv = self._conv_cache.get(i)
        if conv is None or conv.size < L + 1:
            conv = self.probs
            for _ in range(i - 1):
                conv = np.convolve(conv, self.probs)
            self._conv_cache[i] = conv
        out = np.zeros(L + 1)
        n = min(conv.size, L + 1)
        out[:n] = conv[:n]
        return out

    def conv_matrix(self, i_max: int, L: int) -> np.ndarray:
        """Stacked convolution pmfs: row i is ``conv_pmf(i, L)``.

        Cached and grown on demand; rows are shared read-only views.
        """
        cache = getattr(self, "_matrix_cache", None)
        if cache is None or cache.shape[0] < i_max + 1 or cache.shape[1] < L + 1:
            rows = max(i_max + 1, cache.shape[0] if cache is not None else 0)
            cols = max(L + 1, cache.shape[1] if cache is not None else 0)
            if self.family == "poisson":
                mu = np.arange(rows)[:, None] * self.rate
                mat = stats.poisson.pmf(np.arange(cols)[None, :], mu)
            else:
                mat = np.vstack([self.conv_pmf(i, cols - 1) for i in range(rows)])
            mat.setflags(write=False)
            self._matrix_cache = mat
            cache = mat
        return cache[: i_max + 1, : L + 1]

    def conv_pmf_at(self, i: int, l: int) -> float:
        """Entry (i, l) of ``conv_matrix``, read from its cached table."""
        return float(self.conv_matrix(i, l)[i, l])

    def weighted_tail(self, i: int, L: int) -> float:
        """Upper bound on sum_{l > L} (l + 1) * conv_pmf(i)[l].

        Uses the exact first moment of the convolution (i * mean + 1
        including the +1 weight) minus the truncated weighted sum.
        """
        if L < 0:
            return i * self.mean + 1.0
        pmf = self.conv_pmf(i, L)
        head = float(np.dot(pmf, np.arange(1, L + 2)))
        return max(0.0, i * self.mean + 1.0 - head)


def _draw_weighted(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Index draw proportional to nonnegative weights (one uniform; np.cumsum's sums)."""
    c = list(accumulate(weights.tolist()))
    total = c[-1]
    if total <= 0.0:
        raise ValueError("weighted draw over zero total weight")
    u = rng.random() * total
    return min(bisect_right(c, u), len(c) - 1)


def _infected_sources(x: np.ndarray) -> np.ndarray:
    return np.nonzero(x[1:])[0] + 1


def _transmission_sampler(law: OffspringLaw):
    """Source-then-offspring-sum draw with zero-transmission rejection.

    Draw order per attempt: one uniform for the source load (weight
    x^src over src >= 1), then the offspring-sum draws; repeat until the
    transmitted load is nonzero.
    """

    def sample(x: np.ndarray, rng: np.random.Generator) -> int:
        srcs = _infected_sources(x)
        if srcs.size == 0:
            raise ValueError("transmission sampler called with no infected hosts")
        w = x[srcs]
        while True:
            src = int(srcs[_draw_weighted(w, rng)])
            l = law.sample_sum(src, rng)
            if l > 0:
                return l

    return sample


def _transmission_mixture(law: OffspringLaw, lam: float):
    """Weighted target profile lam * sum_src x^src p_{src, l}, l = 0..L."""

    def profile(x: np.ndarray, L: int) -> np.ndarray:
        srcs = _infected_sources(x)
        out = np.zeros(L + 1)
        if srcs.size == 0:
            return out
        P = law.conv_matrix(int(srcs.max()), L)
        out = lam * (x[srcs] @ P[srcs, :])
        out[0] = 0.0
        return out

    return profile


def luchsinger_nonlinear(lam: float, mu: float, kappa: float,
                         offspring: OffspringLaw) -> ModelSpec:
    """Fixed-population nonlinear model.

    Parasites die individually at rate mu; hosts die in catastrophes at
    rate kappa and are instantly replaced healthy, so the population
    size never changes.  Healthy hosts are infected at rate
    lam * sum_i x^i (1 - p_{i0}); the transmitted load is an i-fold
    offspring sum conditioned to be nonzero.
    """
    if lam <= 0 or mu <= 0 or kappa < 0:
        raise ValueError("require lam > 0, mu > 0, kappa >= 0")

    def moves(i: int):
        if i == 0:
            return ()
        if i == 1:
            return ((0, mu + kappa),)
        return ((i - 1, i * mu), (0, kappa))

    baseline = BaselineGenerator(moves, lambda i: 0.0, m1=mu + kappa, m2=1.0, w=0.0)

    theta = offspring.mean
    sample = _transmission_sampler(offspring)
    mixture = _transmission_mixture(offspring, lam)

    def alpha_total(i: int, x: np.ndarray) -> float:
        if i != 0:
            return 0.0
        srcs = _infected_sources(x)
        if srcs.size == 0:
            return 0.0
        return lam * float(np.dot(x[srcs], 1.0 - offspring.p0 ** srcs))

    def alpha_sample(i: int, x: np.ndarray, rng: np.random.Generator) -> int:
        if i != 0:
            raise ValueError("only healthy hosts are infected in this model")
        return sample(x, rng)

    def alpha_pointwise(i: int, l: int, x: np.ndarray) -> float:
        if i != 0 or l == 0:
            return 0.0
        srcs = _infected_sources(x)
        if srcs.size == 0:
            return 0.0
        return lam * float(sum(x[s] * offspring.conv_pmf_at(int(s), l) for s in srcs))

    def alpha_inflow(x: np.ndarray, J: int) -> np.ndarray:
        return x[0] * mixture(x, J)

    def alpha_row(i: int, x: np.ndarray, L: int) -> np.ndarray:
        if i != 0:
            return np.zeros(L + 1)
        return mixture(x, L)

    def alpha_tail_l11(i: int, x: np.ndarray, L: int) -> float:
        if i != 0:
            return 0.0
        srcs = _infected_sources(x)
        return lam * float(sum(x[s] * offspring.weighted_tail(int(s), L) for s in srcs))

    interaction = InteractionSpec(
        alpha_total=alpha_total,
        alpha_sample=alpha_sample,
        alpha_pointwise=alpha_pointwise,
        beta_total=lambda x: 0.0,
        beta_sample=_no_immigration,
        beta_pointwise=lambda i, x: 0.0,
        delta=lambda i, x: 0.0,
        envelopes=Envelopes(
            a01=lambda z: lam,
            a11=lambda z, _c=lam * max(theta, 1.0): _c,
        ),
        alpha_loads=frozenset({0}),
        delta_zero=True,
        beta_zero=True,
        alpha_inflow=alpha_inflow,
        alpha_row=alpha_row,
        alpha_tail_l11=alpha_tail_l11,
    )
    return ModelSpec(
        name="luchsinger_nonlinear",
        baseline=baseline,
        interaction=interaction,
    )


def _no_immigration(x: np.ndarray, rng: np.random.Generator) -> int:
    raise ValueError("model has no immigration")


def luchsinger_linear(lam: float, mu: float, kappa: float,
                      offspring: OffspringLaw) -> ModelSpec:
    """Open-population linear model.

    Only infected hosts are tracked; the pool of susceptibles is
    unlimited, so new infections enter as immigration at per-capita rate
    lam * sum_l x^l p_{l i} into load i >= 1.  Hosts leave when their
    last parasite dies (rate mu folded into the death at load 1) or by
    recovery/removal at rate kappa.
    """
    if lam <= 0 or mu <= 0 or kappa < 0:
        raise ValueError("require lam > 0, mu > 0, kappa >= 0")

    def moves(i: int):
        if i >= 2:
            return ((i - 1, i * mu),)
        return ()

    def death(i: int) -> float:
        if i == 0:
            return 0.0
        return kappa + mu if i == 1 else kappa

    baseline = BaselineGenerator(moves, death, m1=mu + kappa, m2=1.0, w=0.0)

    theta = offspring.mean
    sample = _transmission_sampler(offspring)
    mixture = _transmission_mixture(offspring, lam)

    def beta_total(x: np.ndarray) -> float:
        srcs = _infected_sources(x)
        if srcs.size == 0:
            return 0.0
        return lam * float(np.dot(x[srcs], 1.0 - offspring.p0 ** srcs))

    def beta_pointwise(i: int, x: np.ndarray) -> float:
        if i == 0:
            return 0.0
        srcs = _infected_sources(x)
        if srcs.size == 0:
            return 0.0
        return lam * float(sum(x[s] * offspring.conv_pmf_at(int(s), i) for s in srcs))

    def beta_tail_l11(x: np.ndarray, L: int) -> float:
        srcs = _infected_sources(x)
        return lam * float(sum(x[s] * offspring.weighted_tail(int(s), L) for s in srcs))

    interaction = InteractionSpec(
        alpha_total=lambda i, x: 0.0,
        alpha_sample=_no_alpha,
        alpha_pointwise=lambda i, l, x: 0.0,
        beta_total=beta_total,
        beta_sample=sample,
        beta_pointwise=beta_pointwise,
        delta=lambda i, x: 0.0,
        envelopes=Envelopes(
            b01=lambda z: lam,
            b11=lambda z, _c=lam * max(theta, 1.0): _c,
        ),
        alpha_loads=frozenset(),
        delta_zero=True,
        beta_profile=mixture,
        beta_tail_l11=beta_tail_l11,
    )
    return ModelSpec(
        name="luchsinger_linear",
        baseline=baseline,
        interaction=interaction,
    )


def _no_alpha(i: int, x: np.ndarray, rng: np.random.Generator) -> int:
    raise ValueError("model has no interaction moves")


def kretzschmar_modified(nu: float, offspring: OffspringLaw, mu: float,
                         kappa: float, alpha_extra: float, beta_birth: float,
                         birth_discount: float, c: float) -> ModelSpec:
    """Demographic model with bounded-contact-rate infection.

    Every host takes infectious mouthfuls at rate nu; a mouthful sourced
    from an l-parasite host (chosen with probability proportional to
    x^l / (c + ||x||_1)) transmits an l-fold offspring sum of parasites.
    Hosts die at rate kappa + i * alpha_extra and give birth to healthy
    hosts at rate beta_birth * birth_discount^i.

    The damping constant c must be strictly positive: with c = 0 the
    per-capita infection rate scales with the parasite density itself
    and no l1-Lipschitz envelope exists, which breaks every coupling
    bound downstream.  Such a variant can still be built by hand to
    demonstrate checker failure, but not through this constructor.
    """
    if c <= 0:
        raise ValueError(
            "c must be > 0: an undamped per-capita infection rate admits no "
            "l1-Lipschitz envelope and the coupling bounds fail")
    if not 0.0 <= birth_discount <= 1.0:
        raise ValueError("birth_discount must lie in [0, 1]")
    if nu <= 0 or mu <= 0 or kappa < 0 or alpha_extra < 0 or beta_birth < 0:
        raise ValueError("invalid rate parameters")

    def moves(i: int):
        if i >= 1:
            return ((i - 1, i * mu),)
        return ()

    baseline = BaselineGenerator(moves, lambda i: kappa + i * alpha_extra,
                                 m1=mu + kappa + alpha_extra, m2=1.0, w=0.0)

    theta = offspring.mean
    lam = nu * theta
    sample = _transmission_sampler(offspring)
    mixture = _transmission_mixture(offspring, nu)

    def damping(x: np.ndarray) -> float:
        return c + float(x.sum())

    def alpha_total(i: int, x: np.ndarray) -> float:
        srcs = _infected_sources(x)
        if srcs.size == 0:
            return 0.0
        return nu * float(np.dot(x[srcs], 1.0 - offspring.p0 ** srcs)) / damping(x)

    def alpha_sample(i: int, x: np.ndarray, rng: np.random.Generator) -> int:
        return i + sample(x, rng)

    def alpha_pointwise(i: int, l: int, x: np.ndarray) -> float:
        j = l - i
        if j <= 0:
            return 0.0
        srcs = _infected_sources(x)
        if srcs.size == 0:
            return 0.0
        num = float(sum(x[s] * offspring.conv_pmf_at(int(s), j) for s in srcs))
        return nu * num / damping(x)

    def alpha_inflow(x: np.ndarray, J: int) -> np.ndarray:
        q = mixture(x, J) / damping(x)
        return np.convolve(x, q)[: J + 1]

    def alpha_row(i: int, x: np.ndarray, L: int) -> np.ndarray:
        out = np.zeros(L + 1)
        if i < L:
            q = mixture(x, L - i) / damping(x)
            out[i + 1:] = q[1:]
        return out

    def alpha_tail_l11(i: int, x: np.ndarray, L: int) -> float:
        srcs = _infected_sources(x)
        if srcs.size == 0:
            return 0.0
        tail = float(sum(x[s] * offspring.weighted_tail(int(s), L - i) for s in srcs))
        return (i + 1.0) * nu * tail / damping(x)

    def beta_total(x: np.ndarray) -> float:
        loads = np.nonzero(x)[0]
        return beta_birth * float(np.dot(x[loads], birth_discount ** loads))

    def beta_profile(x: np.ndarray, J: int) -> np.ndarray:
        out = np.zeros(J + 1)
        out[0] = beta_total(x)
        return out

    interaction = InteractionSpec(
        alpha_total=alpha_total,
        alpha_sample=alpha_sample,
        alpha_pointwise=alpha_pointwise,
        beta_total=beta_total,
        beta_sample=lambda x, rng: 0,
        beta_pointwise=lambda i, x: beta_total(x) if i == 0 else 0.0,
        delta=lambda i, x: 0.0,
        envelopes=Envelopes(
            a01=lambda z: 2.0 * nu / c,
            a11=lambda z: 2.0 * lam * (1.0 / c + z / c ** 2),
            b01=lambda z: beta_birth,
            b11=lambda z: beta_birth,
        ),
        delta_zero=True,
        alpha_inflow=alpha_inflow,
        alpha_row=alpha_row,
        beta_profile=beta_profile,
        alpha_tail_l11=alpha_tail_l11,
        beta_tail_l11=lambda x, L: 0.0,
    )
    return ModelSpec(
        name="kretzschmar_modified",
        baseline=baseline,
        interaction=interaction,
    )
