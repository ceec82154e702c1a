"""Span tracer for the benchmark's traced run, and its summarizer.

Spans are recorded from outside the program: ``install`` replaces the
module attributes that parasitelab's callers resolve at call time (for
example ``parasitelab.harness.simulate`` and
``parasitelab.tilde.simulate_tilde``) with wrappers, and restores them on
exit.  Nothing under ``src/`` changes.

Hot leaf calls (``OdeSolution.density``, ``InteractionSpec.alpha_total_at``)
would make hundreds of thousands of spans, so they are aggregated into
the enclosing span as a call count and a total time.  Spans are kept in
memory and written out once, after the traced study.

Self time of a span is its duration minus its child spans and its leaf
time.  The dump also holds the wall time measured around the traced
study, which includes time outside every span (the workload's gate, for
one).  ``trace.accounted_frac`` is the self times of all spans plus all
leaf time, as a share of that measured wall time.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from parasitelab import harness, tilde
from parasitelab.ode import OdeSolution
from parasitelab.rates import InteractionSpec

LAYERS = ("ssa", "ode", "rates", "tilde", "coupling", "harness")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)      # leaf name -> [calls, seconds]


class Tracer:
    """Collects spans, leaf aggregates and plain counters in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []

    def span(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call is a span; ``count(args, result)`` adds counts."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            sp = Span(len(spans), stack[-1].id if stack else None, name, clock())
            spans.append(sp)
            stack.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                stack.pop()
            if count is not None:
                sp.counts = count(args, result)
            return result
        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot call: count and time it into the enclosing span."""
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    agg = stack[-1].leaves.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += clock() - t0
        return traced

    def csv_counter(self, fn: Callable) -> Callable:
        """Wrap ``harness.write_csv``: count files and bytes, time stays harness self."""
        counters = self.counters

        def counted(path, *args, **kwargs):
            fn(path, *args, **kwargs)
            counters["csv_files"] = counters.get("csv_files", 0) + 1
            counters["csv_bytes"] = counters.get("csv_bytes", 0) + os.path.getsize(path)
        return counted

    def dump(self, path, wall_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({"wall_s": wall_s, "counters": self.counters,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def _jumps(args, path):
    return {"jumps": path.n_jumps}


def _path_jumps(args, err):
    return {"jumps": args[0].n_jumps}


def _nodes(args, sol):
    return {"nodes": int(sol.ts.size)}


def _individuals(args, path):
    # one individual per initial host plus one per immigration event,
    # the only event kind recorded with load_from = -1
    immigrants = int(np.count_nonzero(path.load_from == -1))
    return {"individuals": args[1].total_hosts + immigrants, "events": path.n_jumps}


def _candidates(args, run):
    return {"candidates": run.n_events + run.n_ghosts, "events": run.n_events,
            "ghosts": run.n_ghosts}


# (owner, attribute, span name, count function); the owner is the module
# whose globals the caller resolves the name in
SPANS = [
    (harness, "run_convergence", "harness.run_convergence", None),
    (harness, "run_certificates", "harness.run_certificates", None),
    (harness, "coupled_summary", "harness.coupled_summary", None),
    (harness, "simulate", "ssa.simulate", _jumps),
    (harness, "sup_l1_error", "ssa.sup_l1_error", _path_jumps),
    (harness, "integrate", "ode.integrate", _nodes),
    (harness, "mild_residual", "ode.mild_residual", None),
    (harness, "semigroup_apply", "ode.semigroup_apply", None),
    (harness, "check_growth", "rates.check_growth", None),
    (harness, "check_lipschitz_sampled", "rates.check_lipschitz_sampled", None),
    (harness, "semigroup_moment", "rates.semigroup_moment", None),
    (harness, "moment_bound_check", "tilde.moment_bound_check", None),
    (harness, "mean_identity_check", "tilde.mean_identity_check", None),
    (harness, "concentration_check", "tilde.concentration_check", None),
    (tilde, "simulate_tilde", "tilde.simulate_tilde", _individuals),
    (harness, "simulate_coupled", "coupling.simulate_coupled", _candidates),
    (harness, "martingale_balance_check", "coupling.martingale_balance_check", None),
]
LEAVES = [
    (OdeSolution, "density", "ode.density"),
    (InteractionSpec, "alpha_total_at", "rates.alpha_total_at"),
]


@contextmanager
def install(tracer: Tracer):
    """Put the tracer's wrappers in place for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in SPANS:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.span(name, getattr(owner, attr), count))
        for owner, attr, name in LEAVES:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.leaf(name, getattr(owner, attr)))
        saved.append((harness, "write_csv", harness.write_csv))
        harness.write_csv = tracer.csv_counter(harness.write_csv)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# summarizer
# ---------------------------------------------------------------------------

@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0        # inclusive of children and leaves
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def aggregate(dump: dict) -> tuple[dict[str, LayerStats], dict[str, list]]:
    """Per span name: calls, inclusive and self time, summed counts; per leaf: calls, time."""
    spans = dump["spans"]
    child_s = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    stats: dict[str, LayerStats] = {}
    leaves: dict[str, list] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        leaf_s = sum(v[1] for v in s["leaves"].values())
        st = stats.setdefault(s["name"], LayerStats())
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s[s["id"]] - leaf_s
        st.durations.append(dur)
        for k, v in s["counts"].items():
            st.counts[k] = st.counts.get(k, 0) + v
        for k, (n, t) in s["leaves"].items():
            agg = leaves.setdefault(k, [0, 0.0])
            agg[0] += n
            agg[1] += t
    return stats, leaves


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def summarize(dump: dict) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, samples).

    Rates per jump, call, individual or candidate use inclusive time;
    ``self_s`` and the bare ``.s`` of a span exclude its child spans and
    leaf calls; ``<layer>.share`` is a layer's self plus leaf time over
    the traced wall time, and ``<span>.incl_frac`` a span's inclusive
    time over it.  The traced wall time is ``dump["wall_s"]``, measured
    around the study.  ``samples`` is the number of calls behind a
    value.
    """
    stats, leaves = aggregate(dump)
    S = lambda name: stats.get(name, LayerStats())  # noqa: E731
    L = lambda name: leaves.get(name, [0, 0.0])     # noqa: E731
    wall = dump["wall_s"]
    out: dict[str, tuple[float, str, int]] = {}

    def put(name, value, unit, n):
        out[name] = (float(value), unit, int(n))

    sim, sup = S("ssa.simulate"), S("ssa.sup_l1_error")
    put("ssa.simulate.calls", sim.calls, "count", sim.calls)
    put("ssa.simulate.jumps", sim.counts.get("jumps", 0), "count", sim.calls)
    put("ssa.simulate.us_per_jump", _per(sim.total_s, sim.counts.get("jumps", 0), 1e6), "us", sim.calls)
    put("ssa.simulate.self_s", sim.self_s, "s", sim.calls)
    put("ssa.sup_l1_error.calls", sup.calls, "count", sup.calls)
    put("ssa.sup_l1_error.us_per_jump", _per(sup.total_s, sup.counts.get("jumps", 0), 1e6), "us", sup.calls)
    put("ssa.sup_l1_error.self_s", sup.self_s, "s", sup.calls)

    dn, dt = L("ode.density")
    put("ode.density.calls", dn, "count", dn)
    put("ode.density.us_per_call", _per(dt, dn, 1e6), "us", dn)
    put("ode.density.s", dt, "s", dn)
    integ = S("ode.integrate")
    put("ode.integrate.calls", integ.calls, "count", integ.calls)
    put("ode.integrate.nodes", integ.counts.get("nodes", 0), "count", integ.calls)
    put("ode.integrate.ms_per_call", _per(integ.total_s, integ.calls, 1e3), "ms", integ.calls)
    put("ode.integrate.self_s", integ.self_s, "s", integ.calls)
    for name in ("ode.mild_residual", "ode.semigroup_apply", "rates.check_growth",
                 "rates.check_lipschitz_sampled", "rates.semigroup_moment",
                 "tilde.concentration_check", "tilde.mean_identity_check",
                 "tilde.moment_bound_check", "coupling.martingale_balance_check"):
        put(f"{name}.s", S(name).self_s, "s", S(name).calls)

    an, at = L("rates.alpha_total_at")
    put("rates.alpha_total_at.calls", an, "count", an)
    put("rates.alpha_total_at.s", at, "s", an)

    tl = S("tilde.simulate_tilde")
    indiv = tl.counts.get("individuals", 0)
    put("tilde.simulate_tilde.calls", tl.calls, "count", tl.calls)
    put("tilde.simulate_tilde.individuals", indiv, "count", tl.calls)
    put("tilde.simulate_tilde.events", tl.counts.get("events", 0), "count", tl.calls)
    put("tilde.simulate_tilde.us_per_individual", _per(tl.total_s, indiv, 1e6), "us", tl.calls)
    put("tilde.simulate_tilde.self_s", tl.self_s, "s", tl.calls)

    cp = S("coupling.simulate_coupled")
    cand = cp.counts.get("candidates", 0)
    p50, p90 = (np.percentile(cp.durations, [50, 90]) * 1e3) if cp.durations else (0.0, 0.0)
    put("coupling.simulate_coupled.calls", cp.calls, "count", cp.calls)
    put("coupling.simulate_coupled.candidates", cand, "count", cp.calls)
    put("coupling.simulate_coupled.events", cp.counts.get("events", 0), "count", cp.calls)
    put("coupling.simulate_coupled.ghost_frac", _per(cp.counts.get("ghosts", 0), cand),
        "frac", cp.calls)
    put("coupling.simulate_coupled.us_per_candidate", _per(cp.total_s, cand, 1e6), "us", cp.calls)
    put("coupling.simulate_coupled.p50_ms", p50, "ms", cp.calls)
    put("coupling.simulate_coupled.p90_ms", p90, "ms", cp.calls)
    put("coupling.simulate_coupled.self_s", cp.self_s, "s", cp.calls)

    roots = [n for n in stats if n.startswith("harness.")]
    put("harness.self_s", sum(S(n).self_s for n in roots), "s", sum(S(n).calls for n in roots))
    put("harness.csv_files", dump["counters"].get("csv_files", 0), "count", 1)
    put("harness.csv_bytes", dump["counters"].get("csv_bytes", 0), "B", 1)

    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, st in stats.items():
        layer_s[name.split(".")[0]] += st.self_s
    for name, (_, t) in leaves.items():
        layer_s[name.split(".")[0]] += t
    for layer in LAYERS:
        put(f"{layer}.share", _per(layer_s[layer], wall), "frac", 1)
    for name in ("ssa.simulate", "ssa.sup_l1_error", "tilde.simulate_tilde",
                 "coupling.simulate_coupled"):
        put(f"{name}.incl_frac", _per(S(name).total_s, wall), "frac", S(name).calls)
    put("trace.wall_s", wall, "s", 1)
    put("trace.accounted_frac", _per(sum(layer_s.values()), wall), "frac", 1)
    return out
