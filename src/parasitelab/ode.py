"""Deterministic limit: truncated average-drift system and its solver.

The limit dynamics on the truncation 0..J combine the linear baseline
flow (the transposed within-host generator) with the nonlinear
interaction part: per-target inflow, per-source outflow, immigration
and excess death, every interaction evaluator seeing the positive part
of the state.  The solver is an adaptive explicit Runge-Kutta pair with
a cubic Hermite dense output built from the accepted steps.  Bounds on
the sup norms of that dense output (parasite norm M_T, host norm G_T),
taken over each segment's Bezier control points, feed every thinning
dominator and all downstream bound constants.

``semigroup_apply`` and ``mild_residual`` provide an independent route
to the same trajectory (matrix exponential of the baseline plus
quadrature of the interaction term along the solution), used to certify
the integrator against the integral form of the equations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .rates import BaselineGenerator, ModelSpec
from .state import l11_norm

DENSE_EXPM_CAP = 400


class BlowUpError(RuntimeError):
    """The l11 norm crossed the blow-up cap before the horizon."""

    def __init__(self, solution: "OdeSolution"):
        super().__init__(
            f"blow-up at t = {solution.blow_up_time:.6g} (cap {solution.blowup_cap:.6g})")
        self.solution = solution


class StiffnessError(RuntimeError):
    """The adaptive integrator failed (step-size underflow)."""


class TruncationTooLarge(ValueError):
    """Dense matrix-exponential checks are capped at J <= DENSE_EXPM_CAP."""


def _as_array(x, J: Optional[int] = None) -> np.ndarray:
    v = np.array(x, dtype=np.float64)
    if J is not None:
        if v.size > J + 1:
            raise ValueError(f"initial condition has support above truncation J = {J}")
        if v.size < J + 1:
            v = np.concatenate([v, np.zeros(J + 1 - v.size)])
    return v


def _interaction_part(model: ModelSpec, xp: np.ndarray, J: int) -> np.ndarray:
    inter = model.interaction
    out = inter.alpha_inflow_at(xp, J).copy()
    for i in np.nonzero(xp)[0]:
        a = inter.alpha_total_at(int(i), xp)
        if a:
            out[i] -= xp[i] * a
    out += inter.beta_profile_at(xp, J)
    if not inter.delta_zero:
        out -= xp * inter.delta_profile_at(xp, J)
    return out


def drift(model: ModelSpec, x, J: int) -> np.ndarray:
    """Right-hand side of the truncated limit system at state x.

    Applies the positive part throughout.  Flow to loads above J is
    dropped.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    u = _as_array(x, J)
    xp = np.maximum(u, 0.0)
    B = model.baseline.matrix(J)
    out = xp @ B + _interaction_part(model, xp, J)
    if not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise ValueError(f"nonfinite drift component at load {bad}")
    return out


@dataclass
class OdeSolution:
    """Accepted-step trajectory with cubic Hermite dense output.

    ``ts``/``ys`` are the accepted nodes and values, ``fs`` the drift at
    the nodes.  ``M_T`` and ``G_T`` bound the parasite and host norms of
    the dense output over its whole span: segment k is the cubic Bezier
    curve with control points ``y_k``, ``y_k + h_k f_k / 3``,
    ``y_{k+1} - h_k f_{k+1} / 3`` and ``y_{k+1}``, so it lies in their
    convex hull (Farin, *Curves and Surfaces for CAGD*), and every norm
    is convex, so its largest value over the control points bounds the
    segment.  When ``blow_up`` is set the nodes end at the crossing time
    instead of the horizon.

    ``density(t)`` evaluates the dense output at one time;
    ``density_many(ts)`` evaluates it at a whole array of times in one
    vectorized pass, returning one row per time, each equal to
    ``density`` at that time bit for bit.
    """

    model: ModelSpec
    J: int
    ts: np.ndarray
    ys: np.ndarray          # (n_nodes, J + 1)
    fs: np.ndarray
    T: float
    M_T: float
    G_T: float
    blow_up: bool
    blow_up_time: Optional[float]
    blowup_cap: float
    rtol: float
    atol: float
    tail_ok: bool

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def segments(self, t):
        """Index k of the dense-output segment [ts[k], ts[k+1]] used at each time.

        The number of interior nodes at or before t: 0 before the second
        node, the last segment from the second-last node on (NaN
        included), and 0 everywhere on a one-node solution.
        """
        return np.searchsorted(self.ts[1:-1], t, side="right")

    def density(self, t: float) -> np.ndarray:
        """Dense-output state at time t (exact at the nodes)."""
        ts = self.ts
        if t <= ts[0]:
            return self.ys[0]
        if t >= ts[-1]:
            return self.ys[-1]
        k = self.segments(t)
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        s2, s3 = s * s, s * s * s
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        return (h00 * self.ys[k] + h01 * self.ys[k + 1]
                + h * (h10 * self.fs[k] + h11 * self.fs[k + 1]))

    def density_many(self, ts) -> np.ndarray:
        """Dense-output states at every time of ``ts``, shape (len(ts), J + 1).

        Row j equals ``density(ts[j])`` bit for bit: the same segment
        search, the same Hermite basis evaluated in the same order, and
        the end values outside the node range (a one-node solution is
        constant).
        """
        t = np.asarray(ts, dtype=np.float64).reshape(-1)
        nodes = self.ts
        if nodes.size == 1:
            return np.repeat(self.ys, t.size, axis=0)
        k = self.segments(t)
        h = nodes[k + 1] - nodes[k]
        s = (t - nodes[k]) / h
        s2, s3 = s * s, s * s * s
        h00 = (2 * s3 - 3 * s2 + 1)[:, None]
        h10 = (s3 - 2 * s2 + s)[:, None]
        h01 = (-2 * s3 + 3 * s2)[:, None]
        h11 = (s3 - s2)[:, None]
        out = (h00 * self.ys[k] + h01 * self.ys[k + 1]
               + h[:, None] * (h10 * self.fs[k] + h11 * self.fs[k + 1]))
        out[t <= nodes[0]] = self.ys[0]
        out[t >= nodes[-1]] = self.ys[-1]
        return out

    def drift_l1_bound(self) -> float:
        """Max l1 norm of the drift over the accepted nodes."""
        return float(np.max(np.sum(np.abs(self.fs), axis=1)))

    def write_csv(self, path, header_extra: str = "") -> None:
        with open(path, "w", newline="") as fh:
            extra = f" {header_extra}" if header_extra else ""
            fh.write(f"# model={self.model.name} J={self.J} rtol={self.rtol!r} "
                     f"atol={self.atol!r} M_T={self.M_T!r} G_T={self.G_T!r} "
                     f"blow_up={self.blow_up}{extra}\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["time"] + [f"x{i}" for i in range(self.J + 1)])
            for t, y in zip(self.ts, self.ys):
                w.writerow([repr(float(t))] + [repr(float(v)) for v in y])


def default_truncation(x0) -> int:
    """Default truncation: four times the initial max load plus 50."""
    v = _as_array(x0)
    support = np.nonzero(v)[0]
    max_load = int(support[-1]) if support.size else 0
    return 4 * max_load + 50


def integrate(model: ModelSpec, x0, T: float, J: Optional[int] = None,
              rtol: float = 1e-6, atol: float = 1e-8,
              blowup_cap: Optional[float] = None) -> OdeSolution:
    """Integrate the truncated limit system from x0 over [0, T].

    Raises ``BlowUpError`` (carrying the partial solution) if the l11
    norm crosses the cap before T, and ``StiffnessError`` on step-size
    underflow.  The returned solution records M_T and G_T, the largest
    parasite and host norms over the Bezier control points of its dense
    output (bounds on its sup norms), and a terminal tail-quality flag ((J+1) times the mass above 0.9 J must stay below
    1e-8 for the truncation to be considered clean).
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if J is None:
        J = default_truncation(x0)
    y0 = _as_array(x0, J)
    if y0.size and y0.min() < 0:
        raise ValueError("initial condition must be componentwise nonnegative")
    if blowup_cap is None:
        blowup_cap = 1e3 * (1.0 + l11_norm(y0))
    B = model.baseline.matrix(J)
    weights = np.arange(1, J + 2, dtype=np.float64)

    def rhs(t, u):
        xp = np.maximum(u, 0.0)
        return xp @ B + _interaction_part(model, xp, J)

    def blow_event(t, u):
        return blowup_cap - float(np.dot(weights, np.abs(u)))

    blow_event.terminal = True
    blow_event.direction = -1

    if T == 0.0:
        ts = np.array([0.0])
        ys = y0[None, :]
        fs = rhs(0.0, y0)[None, :]
        m = l11_norm(y0)
        g = float(np.abs(y0).sum())
        return OdeSolution(model, J, ts, ys, fs, 0.0, m, g, False, None,
                           blowup_cap, rtol, atol, True)

    sol = solve_ivp(rhs, (0.0, T), y0, method="RK45", rtol=rtol, atol=atol,
                    events=[blow_event])
    if sol.status == -1:
        raise StiffnessError(sol.message)
    ts = sol.t
    ys = sol.y.T
    blow = sol.status == 1
    blow_time = float(sol.t_events[0][0]) if blow else None
    fs = np.array([rhs(t, y) for t, y in zip(ts, ys)])

    # sup norms bounded over each segment's Bezier control points
    h3 = np.diff(ts)[:, None] / 3.0
    ctrl = np.abs(np.concatenate([ys, ys[:-1] + h3 * fs[:-1], ys[1:] - h3 * fs[1:]]))
    out = OdeSolution(model, J, ts, ys, fs, T, float(np.max(ctrl @ weights)),
                      float(np.max(ctrl.sum(axis=1))), blow, blow_time,
                      blowup_cap, rtol, atol, True)

    terminal = ys[-1]
    cut = int(math.floor(0.9 * J))
    tail = (J + 1) * float(np.abs(terminal[cut + 1:]).sum())
    out.tail_ok = tail < 1e-8

    if blow:
        raise BlowUpError(out)
    return out


def semigroup_apply(baseline: BaselineGenerator, x, t: float, J: int,
                    cap: int = DENSE_EXPM_CAP) -> np.ndarray:
    """Apply the transposed baseline semigroup to x on the truncation.

    Computed as a dense matrix exponential of the truncated generator;
    mass leaving through the cemetery or the truncation is dropped, so
    for nonnegative x the result undershoots the untruncated flow.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if J > cap:
        raise TruncationTooLarge(f"J = {J} exceeds the dense-exponential cap {cap}")
    v = _as_array(x, J)
    if t == 0.0:
        return v
    P = expm(baseline.matrix(J) * t)
    return v @ P


def mild_residual(sol: OdeSolution, t: float, n_quad: int = 64,
                  cap: int = DENSE_EXPM_CAP) -> float:
    """l11 distance between the trajectory and its integral-form value at t.

    Evaluates x(t) against the semigroup applied to x(0) plus the
    composite-Simpson quadrature of the semigroup-propagated interaction
    term along the dense output.  Small values certify integrator /
    truncation consistency; the quadrature and solver tolerances set the
    attainable floor.
    """
    if not 0.0 <= t <= sol.t_end:
        raise ValueError("t outside the solution span")
    if sol.J > cap:
        raise TruncationTooLarge(f"J = {sol.J} exceeds the dense-exponential cap {cap}")
    if t == 0.0:
        return 0.0
    if n_quad % 2:
        n_quad += 1
    J = sol.J
    B = sol.model.baseline.matrix(J)
    dt = t / n_quad
    E = expm(B * dt)
    nodes = np.linspace(0.0, t, n_quad + 1)
    w = np.ones(n_quad + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= dt / 3.0
    # Horner over the quadrature nodes: after the loop,
    # acc = sum_j w_j F(x(s_j)) @ expm(B (t - s_j))
    acc = np.zeros(J + 1)
    for j, (s, wj) in enumerate(zip(nodes, w)):
        xp = np.maximum(sol.density(float(s)), 0.0)
        F = _interaction_part(sol.model, xp, J)
        acc = wj * F if j == 0 else acc @ E + wj * F
    lin = sol.ys[0] @ expm(B * t)
    resid = sol.density(t) - lin - acc
    return l11_norm(resid)
