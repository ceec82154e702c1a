"""Population states and the two norms.

``PopulationState`` holds integer host counts indexed by parasite load,
sparse and with finite support: the state of the stochastic process.
The deterministic limit works on plain arrays of per-load densities on a
finite truncation 0..J.

Two norms matter everywhere: the host norm (plain l1) and the parasite
norm (l11), which weights load i by (i + 1).  The module also provides
the three square-root/threshold tail inequalities used by the
concentration certificates (``lemma_a1_sides``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np


@dataclass(frozen=True)
class PopulationState:
    """Sparse integer host counts by parasite load.

    Only strictly positive counts are stored; ``counts`` is sorted by
    ascending load.  ``total_hosts`` is the cached sum of all counts.
    Instances are immutable values and safe to share between workers.
    """

    counts: tuple[tuple[int, int], ...]
    total_hosts: int = field(default=-1)

    def __post_init__(self):
        loads = [l for l, _ in self.counts]
        if loads != sorted(loads):
            raise ValueError("counts must be sorted by ascending load")
        for l, c in self.counts:
            if l < 0:
                raise ValueError(f"negative load {l}")
            if c <= 0:
                raise ValueError(f"non-positive count {c} at load {l}")
        total = sum(c for _, c in self.counts)
        if self.total_hosts == -1:
            object.__setattr__(self, "total_hosts", total)
        elif self.total_hosts != total:
            raise ValueError("total_hosts does not match stored counts")

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "PopulationState":
        items = tuple(sorted((int(l), int(c)) for l, c in d.items() if c != 0))
        return cls(items)

    @classmethod
    def from_dense(cls, arr: Iterable[int]) -> "PopulationState":
        items = tuple((i, int(c)) for i, c in enumerate(arr) if c != 0)
        return cls(items)

    @classmethod
    def empty(cls) -> "PopulationState":
        return cls(())

    @property
    def max_load(self) -> int:
        """Largest stored load, or -1 for the empty state."""
        return self.counts[-1][0] if self.counts else -1

    def to_dense(self, length: int | None = None) -> np.ndarray:
        n = max(self.max_load + 1, length or 0)
        out = np.zeros(n, dtype=np.int64)
        for l, c in self.counts:
            out[l] = c
        return out

    def __iter__(self):
        return iter(self.counts)


@dataclass(frozen=True)
class BoundM:
    """Parameters (M, N) of the tail inequalities: M >= 1 and N >= 9."""

    M: float
    N: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.N < 9:
            raise ValueError(f"N must be >= 9, got {self.N}")


def _as_values(x: PopulationState | np.ndarray) -> np.ndarray:
    if isinstance(x, PopulationState):
        return x.to_dense().astype(np.float64)
    return np.asarray(x, dtype=np.float64)


def l1_norm(x: PopulationState | np.ndarray) -> float:
    """Host norm: sum of absolute per-load values."""
    if isinstance(x, PopulationState):
        return float(x.total_hosts)
    v = _as_values(x)
    return float(np.sum(np.abs(v)))


def l11_norm(x: PopulationState | np.ndarray) -> float:
    """Parasite norm: sum of (i + 1) * |x^i| over loads i."""
    v = _as_values(x)
    if v.size == 0:
        return 0.0
    w = np.arange(1, v.size + 1, dtype=np.float64)
    return float(np.dot(w, np.abs(v)))


@dataclass(frozen=True)
class LemmaA1Sides:
    """The three (lhs, rhs) pairs of the tail inequalities.

    (i)   sum over {i: u_i >= 1/N} of sqrt(u_i)      vs (M+1) sqrt(log N)
    (ii)  sum over {i: u_i <  1/N} of u_i            vs (M+1) N^{-1/2} sqrt(log N)
    (iii) sum over all i of min(sqrt(N u_i), 2N u_i) vs 3 (M+1) sqrt(N log N)

    Logarithms are natural.
    """

    sqrt_sum: tuple[float, float]
    small_mass: tuple[float, float]
    combined: tuple[float, float]

    @property
    def all_hold(self) -> bool:
        return all(lhs <= rhs for lhs, rhs in
                   (self.sqrt_sum, self.small_mass, self.combined))


def lemma_a1_sides(u: np.ndarray, bound: BoundM) -> LemmaA1Sides:
    """Evaluate both sides of the three tail inequalities for u >= 0.

    Requires every entry nonnegative and l11 mass at most ``bound.M``.
    """
    v = _as_values(u)
    if v.size and v.min() < 0:
        raise ValueError("u must be componentwise nonnegative")
    mass = l11_norm(v)
    if mass > bound.M * (1 + 1e-12):
        raise ValueError(f"l11 mass {mass} exceeds M = {bound.M}")
    N = bound.N
    M = bound.M
    log_n = math.log(N)
    big = v >= 1.0 / N

    lhs_i = float(np.sum(np.sqrt(v[big])))
    rhs_i = (M + 1) * math.sqrt(log_n)
    lhs_ii = float(np.sum(v[~big]))
    rhs_ii = (M + 1) * math.sqrt(log_n) / math.sqrt(N)
    lhs_iii = float(np.sum(np.minimum(np.sqrt(N * v), 2.0 * N * v)))
    rhs_iii = 3.0 * (M + 1) * math.sqrt(N * log_n)

    return LemmaA1Sides((lhs_i, rhs_i), (lhs_ii, rhs_ii), (lhs_iii, rhs_iii))
