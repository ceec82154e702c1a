"""Experiment orchestration: configs, convergence studies, certificates.

A JSON config drives everything (sections: model, initial, sim, ode,
checks, output).  Replica seeds derive from the master seed by the
documented rule seed(N, r) = SeedSequence([master_seed, N, r]), so
results never depend on worker scheduling or on how many replicas run,
and repeated runs of the same config produce byte-identical CSV bodies
(timestamps live in a separate metadata file).  Worker count comes from
the PARASITELAB_WORKERS environment variable, defaulting to the
available parallelism.

Exit-status contract for the certificate runner: 0 when every selected
certificate passes, 1 on a soft certificate failure, 2 when a hard
invariant fired (coupling invariants, thinning soundness) or a run could
not complete (limit-trajectory blow-up or stiffness, an event cap).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import ode as ode_mod
from .coupling import (CoupledCapExceeded, CouplingInvariantError,
                       martingale_balance_check, simulate_coupled)
from .models import (OffspringLaw, kretzschmar_modified, luchsinger_linear,
                     luchsinger_nonlinear)
from .ode import (BlowUpError, OdeSolution, StiffnessError, TruncationTooLarge,
                  integrate, mild_residual, semigroup_apply)
from .rates import (ModelSpec, check_growth, check_lipschitz_sampled,
                    semigroup_moment)
from .ssa import CapExceeded, simulate, sup_l1_error
from .state import BoundM, PopulationState, l11_norm, lemma_a1_sides
from .tilde import (DominatingRateError, TildeRates, concentration_check,
                    mean_identity_check, moment_bound_check, simulate_tilde)

WORKERS_ENV = "PARASITELAB_WORKERS"
# a hard invariant fired or a run could not complete: exit status 2
HARD_FAILURES = (DominatingRateError, CouplingInvariantError, BlowUpError, StiffnessError,
                 CapExceeded, CoupledCapExceeded)

CONFIG_SECTIONS = ("model", "initial", "sim", "ode", "checks", "output")
# accepted keys per section; the model section is checked by _check_model
SECTION_KEYS = {
    "initial": {"density", "family", "mean", "p", "support"},
    "sim": {"n_list", "replicas", "horizon", "master_seed", "event_cap"},
    "ode": {"truncation", "rtol", "atol", "blowup_factor"},
    "checks": {"run", "replicas", "slope_band"},
    "output": {"directory"},
}
# required and optional parameters per model name, and the one parameter
# of each offspring family (the offspring section itself is optional)
MODEL_KEYS = {"luchsinger_nonlinear": ({"lam", "mu", "kappa"}, set()),
              "luchsinger_linear": ({"lam", "mu", "kappa"}, set()),
              "kretzschmar_modified": ({"nu", "mu", "kappa", "c"},
                                       {"alpha_extra", "beta_birth", "birth_discount"})}
OFFSPRING_KEYS = {"point_mass": "value", "poisson": "mean", "geometric": "p",
                  "table": "probs"}
DEFAULT_OFFSPRING = {"family": "poisson", "mean": 1.0}
# the certificate names checks.run accepts, one per branch of run_certificates
CERTIFICATES = ("growth", "lipschitz", "semigroup", "mild", "lemma_a1", "moment",
                "mean_identity", "concentration", "first_moment", "coupling")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Validated experiment settings plus the raw dict they came from."""

    raw: dict
    model: dict
    density: np.ndarray
    n_list: list[int]
    horizon: float
    replicas: int
    master_seed: int
    event_cap: int
    truncation: Optional[int]
    rtol: float
    atol: float
    blowup_factor: float
    checks: list[str]
    slope_band: tuple[float, float]
    check_replicas: int
    out_dir: Path

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        for section in raw:
            if section not in CONFIG_SECTIONS:
                raise ValueError(f"unknown config section {section!r}")
        for section, allowed in SECTION_KEYS.items():
            _check_keys(f"config section {section!r}", raw.get(section, {}), allowed)
        _check_model(raw.get("model", {}))
        sim = raw.get("sim", {})
        ode_cfg = raw.get("ode", {})
        checks = raw.get("checks", {})
        out = raw.get("output", {})
        n_list = [int(n) for n in sim.get("n_list", [100])]
        if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError("n_list must be nonempty and strictly increasing")
        replicas = int(sim.get("replicas", 10))
        horizon = float(sim.get("horizon", 1.0))
        if replicas < 1 or horizon <= 0:
            raise ValueError("need replicas >= 1 and horizon > 0")
        event_cap = int(sim.get("event_cap", 10_000_000))
        check_replicas = int(checks.get("replicas", 200))
        for key, value in (("sim.n_list", min(n_list)), ("sim.event_cap", event_cap),
                           ("checks.replicas", check_replicas)):
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        density = _initial_density(raw.get("initial", {}))
        band = checks.get("slope_band", [-0.65, -0.35])
        run = list(checks.get("run", ["growth", "lipschitz", "lemma_a1"]))
        unknown = [name for name in run if name not in CERTIFICATES]
        if unknown:
            raise ValueError(f"unknown certificate(s) {unknown} in checks.run; "
                             f"known: {', '.join(CERTIFICATES)}")
        if "concentration" in run and n_list[0] < 9:
            raise ValueError(f"sim.n_list: the concentration certificate needs every "
                             f"N >= 9, got {n_list[0]}")
        return cls(
            raw=raw,
            model=raw.get("model", {}),
            density=density,
            n_list=n_list,
            horizon=horizon,
            replicas=replicas,
            master_seed=int(sim.get("master_seed", 0)),
            event_cap=event_cap,
            truncation=ode_cfg.get("truncation"),
            rtol=float(ode_cfg.get("rtol", 1e-6)),
            atol=float(ode_cfg.get("atol", 1e-8)),
            blowup_factor=float(ode_cfg.get("blowup_factor", 1e3)),
            checks=run,
            slope_band=(float(band[0]), float(band[1])),
            check_replicas=check_replicas,
            out_dir=Path(out.get("directory", "out")),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def config_hash(self) -> str:
        # identifies the experiment: the output destination is excluded
        payload = {k: v for k, v in self.raw.items() if k != "output"}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _check_keys(where: str, cfg: dict, allowed, required=()) -> None:
    """Reject keys of ``cfg`` outside ``allowed`` and absent ``required`` ones."""
    for key in cfg:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}")
    for key in sorted(required):
        if key not in cfg:
            raise ValueError(f"missing key {key!r} in {where}")


def _check_model(model_cfg: dict) -> None:
    """Reject an unknown model or offspring family and unknown or missing keys."""
    name = model_cfg.get("name")
    if name not in MODEL_KEYS:
        raise ValueError(f"unknown model {name!r}; known: {', '.join(MODEL_KEYS)}")
    required, optional = MODEL_KEYS[name]
    _check_keys(f"model {name!r}", model_cfg, required | optional | {"name", "offspring"},
                required)
    off = model_cfg.get("offspring", DEFAULT_OFFSPRING)
    fam = off.get("family")
    if fam not in OFFSPRING_KEYS:
        raise ValueError(f"unknown offspring family {fam!r}; known: {', '.join(OFFSPRING_KEYS)}")
    _check_keys(f"offspring family {fam!r}", off, {"family", OFFSPRING_KEYS[fam]},
                {OFFSPRING_KEYS[fam]})


def _initial_density(initial_cfg: dict) -> np.ndarray:
    """Explicit density vector, or a truncated-and-renormalized family."""
    if "density" in initial_cfg:
        return np.asarray(initial_cfg["density"], dtype=np.float64)
    family = initial_cfg.get("family")
    if family == "poisson":
        from scipy import stats
        support = int(initial_cfg.get("support", 30))
        v = stats.poisson.pmf(np.arange(support + 1), float(initial_cfg["mean"]))
        return v / v.sum()
    if family == "geometric":
        support = int(initial_cfg.get("support", 30))
        p = float(initial_cfg["p"])
        v = p * (1.0 - p) ** np.arange(support + 1)
        return v / v.sum()
    raise ValueError(f"initial condition needs a density or a known family, got {initial_cfg!r}")


def build_model(model_cfg: dict) -> ModelSpec:
    """Construct a model from its config section."""
    _check_model(model_cfg)
    name = model_cfg["name"]
    off = model_cfg.get("offspring", DEFAULT_OFFSPRING)
    fam = off["family"]
    if fam == "point_mass":
        law = OffspringLaw.point_mass(int(off["value"]))
    elif fam == "poisson":
        law = OffspringLaw.poisson(float(off["mean"]))
    elif fam == "geometric":
        law = OffspringLaw.geometric(float(off["p"]))
    else:
        law = OffspringLaw.table(off["probs"])
    if name == "luchsinger_nonlinear":
        return luchsinger_nonlinear(float(model_cfg["lam"]), float(model_cfg["mu"]),
                                    float(model_cfg["kappa"]), law)
    if name == "luchsinger_linear":
        return luchsinger_linear(float(model_cfg["lam"]), float(model_cfg["mu"]),
                                 float(model_cfg["kappa"]), law)
    return kretzschmar_modified(
        float(model_cfg["nu"]), law, float(model_cfg["mu"]),
        float(model_cfg["kappa"]), float(model_cfg.get("alpha_extra", 0.0)),
        float(model_cfg.get("beta_birth", 0.0)),
        float(model_cfg.get("birth_discount", 1.0)), float(model_cfg["c"]))


def replica_seed(master_seed: int, N: int, replica: int) -> np.random.SeedSequence:
    """Documented replica-seed derivation; independent of scheduling."""
    return np.random.SeedSequence([master_seed, N, replica])


def worker_count() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# initial-condition rounding
# ---------------------------------------------------------------------------

def round_initial(x0, N: int) -> PopulationState:
    """Integer counts summing to N by largest-remainder apportionment.

    Requires ||x0||_1 = 1.  Each load receives floor(N x0^i); the
    remaining hosts go to the largest fractional parts, ties resolved
    toward the smallest load.  The per-load error stays below 1/N, so
    the parasite-norm gap is at most (J+1)^2 / N over support 0..J.
    """
    v = np.asarray(x0, dtype=np.float64)
    if v.min(initial=0.0) < 0:
        raise ValueError("x0 must be nonnegative")
    if abs(v.sum() - 1.0) > 1e-12:
        raise ValueError(f"||x0||_1 = {v.sum()!r} must equal 1")
    target = N * v
    counts = np.floor(target).astype(np.int64)
    remainder = N - int(counts.sum())
    fracs = target - counts
    order = sorted(range(v.size), key=lambda i: (-fracs[i], i))
    for i in order[:remainder]:
        counts[i] += 1
    return PopulationState.from_dense(counts)


def limit_trajectory(cfg: ExperimentConfig, model: ModelSpec, x0) -> OdeSolution:
    """The limit trajectory of ``model`` from the density ``x0`` over the horizon.

    Every subcommand integrates with the config's settings: the
    truncation (default ``default_truncation`` of the configured
    density), the tolerances and the blow-up cap
    ``blowup_factor * (1 + ||density||_11)``.  ``integrate`` is looked
    up as a module global, so wrappers on ``harness.integrate`` see
    every limit trajectory.
    """
    J = cfg.truncation or ode_mod.default_truncation(cfg.density)
    cap = cfg.blowup_factor * (1.0 + l11_norm(cfg.density))
    return integrate(model, x0, cfg.horizon, J=J, rtol=cfg.rtol, atol=cfg.atol,
                     blowup_cap=cap)


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header_comment: str, columns: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {header_comment}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRow:
    N: int
    replicas: int
    capped: int
    mean_err: float
    std_err: float
    min_err: float
    max_err: float
    comparator: float          # N^{-1/2} log^{3/2} N
    ratio: float
    mean_err_fixed_x0: float   # against the unrounded-x0 trajectory
    mean_slack: float


@dataclass
class ConvergenceReport:
    rows: list[ConvergenceRow]
    slope: float
    slope_ci: tuple[float, float]
    master_seed: int
    config_hash: str
    aborted: dict[int, str] = field(default_factory=dict)

    def strictly_decreasing(self) -> bool:
        errs = [r.mean_err for r in self.rows]
        return all(b < a for a, b in zip(errs, errs[1:]))


def _converge_chunk(raw_cfg: dict, N: int, reps: list[int],
                    sols: tuple[OdeSolution, OdeSolution]) -> list[tuple]:
    """Worker task: one N, a chunk of replica indices (module-level, picklable).

    ``sols`` are that N's rounded and fixed-x0 limit trajectories, shipped
    without their model (its closures do not pickle); this one's is attached.
    """
    cfg = ExperimentConfig.from_dict(raw_cfg)
    model = build_model(cfg.model)
    sol, sol_fixed = (dataclasses.replace(s, model=model) for s in sols)
    xi0 = round_initial(cfg.density, N)
    clock = time.perf_counter
    out = []
    for r in reps:
        seed = replica_seed(cfg.master_seed, N, r)
        t0 = clock()
        try:
            path = simulate(model, xi0, N, cfg.horizon, seed, event_cap=cfg.event_cap)
        except CapExceeded as cap:
            out.append((r, math.nan, math.nan, math.nan, True, cap.partial.n_jumps, clock() - t0, 0))
            continue
        t1 = clock()
        err = sup_l1_error(path, sol, N)
        err_fixed = sup_l1_error(path, sol_fixed, N)
        out.append((r, err.value, err_fixed.value, err.slack, False, path.n_jumps,
                    t1 - t0, clock() - t1))
    return out


def run_convergence(cfg: ExperimentConfig, workers: Optional[int] = None,
                    write: bool = True) -> ConvergenceReport:
    """Per-N seeded replica study of the sup host-norm deviation.

    For each N the limit trajectory starts from the rounded initial
    condition; the fixed-x0 trajectory gives the secondary column.  Both
    are integrated here, the rounded one once per N and the fixed-x0 one,
    the same for every N, once per study in the first N's block; an N
    whose integration fails is reported in ``aborted``.  The log-log
    slope of the mean error against N is fitted by least squares with a
    +-2 sigma confidence interval.  Per-N run statistics (jumps, capped,
    ODE nodes, seconds per phase) go to ``metadata.json``; only the
    first N's ``integrate_s`` includes the fixed-x0 integration.
    """
    workers = workers or worker_count()
    model = build_model(cfg.model)
    sols: dict[int, tuple[OdeSolution, OdeSolution]] = {}
    stats: dict[int, dict] = {}
    aborted: dict[int, str] = {}
    fixed: Optional[OdeSolution] = None
    for N in cfg.n_list:
        x_rounded = round_initial(cfg.density, N).to_dense().astype(np.float64) / N
        t0 = time.perf_counter()
        try:
            rounded = limit_trajectory(cfg, model, x_rounded)
            if fixed is None:
                fixed = limit_trajectory(cfg, model, cfg.density)
            sols[N] = (rounded, fixed)
        except (BlowUpError, StiffnessError) as err:
            aborted[N] = f"limit trajectory for N = {N}: {type(err).__name__}: {err}"
            continue
        stats[N] = {"integrate_s": time.perf_counter() - t0,
                    "ode_nodes": [int(s.ts.size) for s in sols[N]]}

    chunk = max(1, cfg.replicas // max(workers, 1) // 2 or 1)
    jobs = []
    for N in sols:
        reps = list(range(cfg.replicas))
        for k in range(0, len(reps), chunk):
            jobs.append((N, reps[k:k + chunk]))

    results: dict[int, list[tuple]] = {N: [] for N in sols}
    if workers > 1 and len(jobs) > 1:
        shipped = {N: tuple(dataclasses.replace(s, model=None) for s in p) for N, p in sols.items()}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = {pool.submit(_converge_chunk, cfg.raw, N, reps, shipped[N]): N
                    for N, reps in jobs}
            for fut, N in futs.items():
                results[N].extend(fut.result())
    else:
        for N, reps in jobs:
            results[N].extend(_converge_chunk(cfg.raw, N, reps, sols[N]))

    rows = []
    replica_rows = []
    for N in sols:
        entries = sorted(results[N])
        errs = np.array([e[1] for e in entries if not e[4]])
        errs_fixed = np.array([e[2] for e in entries if not e[4]])
        slacks = np.array([e[3] for e in entries if not e[4]])
        capped = sum(1 for e in entries if e[4])
        stats[N].update(jumps=sum(e[5] for e in entries), capped=capped,
                        simulate_s=sum(e[6] for e in entries),
                        sup_l1_error_s=sum(e[7] for e in entries))
        comparator = N ** -0.5 * math.log(N) ** 1.5
        rows.append(ConvergenceRow(
            N, len(errs), capped, float(errs.mean()),
            float(errs.std(ddof=1) / math.sqrt(len(errs))) if len(errs) > 1 else math.inf,
            float(errs.min()), float(errs.max()), comparator,
            float(errs.mean() / comparator), float(errs_fixed.mean()),
            float(slacks.mean())))
        for e in entries:
            replica_rows.append((N, e[0], e[1], e[2], e[3], int(e[4])))

    if rows:
        log_n = np.log([r.N for r in rows])
        log_e = np.log([r.mean_err for r in rows])
    if len(rows) >= 3:
        (slope, _), cov = np.polyfit(log_n, log_e, 1, cov=True)
        sigma = math.sqrt(cov[0, 0])
    else:
        slope = float(np.polyfit(log_n, log_e, 1)[0]) if len(rows) == 2 else math.nan
        sigma = math.inf
    report = ConvergenceReport(rows, float(slope),
                               (float(slope - 2 * sigma), float(slope + 2 * sigma)),
                               cfg.master_seed, cfg.config_hash(), aborted)

    if write:
        stamp = f"config={cfg.config_hash()} master_seed={cfg.master_seed}"
        write_csv(cfg.out_dir / "convergence.csv", stamp,
                  ["N", "replicas", "capped", "mean_err", "std_err", "min_err",
                   "max_err", "comparator", "ratio", "mean_err_fixed_x0",
                   "mean_slack"],
                  [(r.N, r.replicas, r.capped, r.mean_err, r.std_err, r.min_err,
                    r.max_err, r.comparator, r.ratio, r.mean_err_fixed_x0,
                    r.mean_slack) for r in rows])
        write_csv(cfg.out_dir / "replicas.csv", stamp,
                  ["N", "replica", "sup_err", "sup_err_fixed_x0", "slack", "capped"],
                  replica_rows)
        write_csv(cfg.out_dir / "slope.csv", stamp,
                  ["slope", "ci_lo", "ci_hi"],
                  [(report.slope, report.slope_ci[0], report.slope_ci[1])])
        _write_metadata(cfg, {"per_n": {str(N): st for N, st in stats.items()}})
    return report


def _write_metadata(cfg: ExperimentConfig, extra: Optional[dict] = None) -> None:
    import datetime
    import scipy
    meta = {
        "timestamp": datetime.datetime.now().isoformat(),
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.master_seed,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **(extra or {}),
    }
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with open(cfg.out_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2)


# ---------------------------------------------------------------------------
# certificate suite
# ---------------------------------------------------------------------------

@dataclass
class CertificateResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""
    skipped: bool = False


@dataclass
class CertificateBundle:
    """Certificate results plus ``tail_ok``: for each limit trajectory the
    suite integrated (``N<n>`` for the first N, ``concentration_N<n>`` for
    each concentration N), whether its truncation kept the terminal tail
    mass within budget (``OdeSolution.tail_ok``)."""

    results: list[CertificateResult]
    hard_failure: Optional[str] = None
    tail_ok: dict[str, bool] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.hard_failure:
            return 2
        return 0 if all(r.passed for r in self.results if not r.skipped) else 1


def _certificate_lemma_a1(rng: np.random.Generator, cases: int = 1000) -> CertificateResult:
    worst = math.inf
    for _ in range(cases):
        M = float(rng.uniform(1.0, 8.0))
        N = int(rng.integers(9, 5000))
        size = int(rng.integers(1, 60))
        u = rng.uniform(0.0, 1.0, size=size) * rng.integers(0, 2, size=size)
        w = np.arange(1, size + 1)
        mass = float(np.dot(w, u))
        if mass > 0:
            u *= rng.uniform(0.0, 1.0) * M / mass
        sides = lemma_a1_sides(u, BoundM(M, N))
        for lhs, rhs in (sides.sqrt_sum, sides.small_mass, sides.combined):
            worst = min(worst, rhs - lhs)
        if not sides.all_hold:
            return CertificateResult("lemma_a1", False, worst, "inequality violated")
    return CertificateResult("lemma_a1", True, worst, f"{cases} random triples")


def run_certificates(cfg: ExperimentConfig, write: bool = True,
                     model: Optional[ModelSpec] = None) -> CertificateBundle:
    """Execute the selected certificate suite for the configured model.

    Soft failures (an inequality misses its margin) are recorded per
    certificate; hard failures (coupling invariants, thinning
    soundness, a limit trajectory that blows up or stiffens, an event
    cap) abort the suite and force exit status 2.  ``model`` overrides
    the config-built model (fault injection in tests).
    """
    model = model or build_model(cfg.model)
    results: list[CertificateResult] = []
    tables: list[tuple[str, list[str], list[tuple]]] = []
    tail_ok: dict[str, bool] = {}
    hard: Optional[str] = None
    rng = np.random.default_rng(cfg.master_seed)
    T = cfg.horizon
    N0 = cfg.n_list[0]
    xi0 = round_initial(cfg.density, N0)
    e = model.interaction.envelopes

    try:
        sol = limit_trajectory(cfg, model, xi0.to_dense().astype(np.float64) / N0)
        tail_ok[f"N{N0}"] = sol.tail_ok
        for name in cfg.checks:
            if name == "growth":
                rep = check_growth(model, 1000)
                results.append(CertificateResult(
                    "growth", rep.ok, 1.0 - rep.max_ratio,
                    f"max ratio {rep.max_ratio:.4g} over loads <= {rep.i_max}"))
                tables.append(("growth.csv",
                               ["condition", "margin", "passed", "samples", "note"],
                               [(r.condition, r.margin, int(r.passed), r.samples, r.note)
                                for r in rep.rows()]))
            elif name == "lipschitz":
                rep = check_lipschitz_sampled(model)
                worst = max(rep.ratios.values())
                results.append(CertificateResult(
                    "lipschitz", rep.ok, 1.0 - worst,
                    f"worst ratio {worst:.4g} over {rep.config.n_pairs} pairs"))
                tables.append(("lipschitz.csv",
                               ["condition", "margin", "passed", "samples", "note"],
                               [(r.condition, r.margin, int(r.passed), r.samples, r.note)
                                for r in rep.rows()]))
            elif name == "semigroup":
                margin = math.inf
                ok = True
                rows = []
                Js = min(200, ode_mod.DENSE_EXPM_CAP)
                w = model.baseline.w
                for t in (0.1, 1.0, 2.0):
                    for k in range(5):
                        x = rng.uniform(0.0, 1.0, size=Js + 1) * (rng.random(Js + 1) < 0.2)
                        lhs = l11_norm(semigroup_apply(model.baseline, x, t, Js))
                        rhs = math.exp(w * t) * l11_norm(x)
                        margin = min(margin, rhs - lhs)
                        ok = ok and lhs <= rhs * (1 + 1e-9)
                        rows.append((t, f"flow-{k}", lhs, rhs))
                    for i in (0, 3, 17):
                        lhs = semigroup_moment(model.baseline, i, t, Js)
                        rhs = (i + 1) * math.exp(w * t)
                        margin = min(margin, rhs - lhs)
                        ok = ok and lhs <= rhs * (1 + 1e-9)
                        rows.append((t, f"moment-{i}", lhs, rhs))
                results.append(CertificateResult(
                    "semigroup", ok, margin, "transposed-flow and moment bounds"))
                tables.append(("semigroup.csv", ["t", "check", "lhs", "rhs"], rows))
            elif name == "mild":
                try:
                    worst = 0.0
                    rows = []
                    for t in np.linspace(T / 4, min(T, sol.t_end), 4):
                        r = mild_residual(sol, float(t), n_quad=128)
                        rows.append((float(t), r))
                        worst = max(worst, r)
                    results.append(CertificateResult(
                        "mild", worst < 1e-4, 1e-4 - worst,
                        f"max l11 residual {worst:.3g}"))
                    tables.append(("mild.csv", ["t", "l11_residual"], rows))
                except TruncationTooLarge as err:
                    # skipped, never silently passed
                    results.append(CertificateResult(
                        "mild", False, math.nan, f"skipped: {err}", skipped=True))
            elif name == "lemma_a1":
                results.append(_certificate_lemma_a1(rng))
            elif name == "moment":
                rep = moment_bound_check(model, xi0, N0, T, sol,
                                         cfg.check_replicas, replica_seed(cfg.master_seed, N0, 10 ** 6))
                results.append(CertificateResult(
                    "moment", rep.ok, rep.margin,
                    f"sup {rep.empirical_sup:.4g} vs bound {rep.bound:.4g}"))
                tables.append(("moment.csv",
                               ["t", "empirical_l11_per_capita", "bound", "margin"],
                               [(float(t), float(v), rep.bound, rep.bound - float(v))
                                for t, v in zip(rep.grid, rep.empirical)]))
            elif name == "mean_identity":
                rep = mean_identity_check(model, xi0, N0, T, sol,
                                          cfg.check_replicas,
                                          replica_seed(cfg.master_seed, N0, 5 * 10 ** 6))
                results.append(CertificateResult(
                    "mean_identity", rep.ok, 3.0 - rep.worst_z,
                    f"worst z = {rep.worst_z:.3f} over {len(rep.rows)} (t, load) cells"))
                tables.append(("mean_identity.csv",
                               ["t", "load", "empirical_mean", "target", "std_err", "z"],
                               [(r.t, r.load, r.empirical, r.target, r.std_err, r.z)
                                for r in rep.rows]))
            elif name == "concentration":
                for N in cfg.n_list:
                    reps = max(50, cfg.check_replicas // 4) if N >= 1000 else cfg.check_replicas
                    xiN = round_initial(cfg.density, N)
                    solN = limit_trajectory(cfg, model, xiN.to_dense().astype(float) / N)
                    tail_ok[f"concentration_N{N}"] = solN.tail_ok
                    rep = concentration_check(model, xiN, N, T, solN, reps,
                                              replica_seed(cfg.master_seed, N, 2 * 10 ** 6))
                    margin = float(rep.bound - rep.empirical_mean.max())
                    results.append(CertificateResult(
                        f"concentration_N{N}", rep.ok, margin,
                        f"max mean dist {rep.empirical_mean.max():.4g} vs bound {rep.bound:.4g}"))
                    tables.append((f"concentration_N{N}.csv",
                                   ["t", "mean_dist", "std_err", "bound", "margin"],
                                   [(float(t), float(m), float(s), rep.bound,
                                     rep.bound - float(m))
                                    for t, m, s in zip(rep.grid, rep.empirical_mean,
                                                       rep.std_err)]))
            elif name == "first_moment":
                if model.interaction.beta_zero:
                    results.append(CertificateResult(
                        "first_moment", True, 0.0, "no immigration: bound trivial"))
                    continue
                b01_0 = e.b01(0.0)
                bound = N0 * (1.0 + (e.b10 / b01_0 if b01_0 > 0 else 0.0)) \
                    * math.exp(T * b01_0)
                finals = []
                for r in range(cfg.check_replicas):
                    p = simulate(model, xi0, N0, T, replica_seed(cfg.master_seed, N0, 3 * 10 ** 6 + r),
                                 event_cap=cfg.event_cap)
                    finals.append(p.final.total_hosts)
                mean = float(np.mean(finals))
                se = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
                results.append(CertificateResult(
                    "first_moment", mean <= bound + 3 * se, bound - mean,
                    f"mean final hosts {mean:.4g} vs bound {bound:.4g}"))
                tables.append(("first_moment.csv",
                               ["replica", "final_hosts"],
                               list(enumerate(finals))))
            elif name == "coupling":
                rates = TildeRates(model, sol, N0)
                runs = [simulate_coupled(model, xi0, N0, T, sol,
                                         replica_seed(cfg.master_seed, N0, 4 * 10 ** 6 + r),
                                         eval_times=[T], event_cap=cfg.event_cap,
                                         rates=rates)
                        for r in range(max(100, cfg.check_replicas // 2))]
                mart = martingale_balance_check(runs)
                worst_ratio = max(r.compensator_bound_ratio for r in runs)
                ok = mart.ok and worst_ratio <= 1.0 + 1e-9
                results.append(CertificateResult(
                    "coupling", ok, 1.0 - worst_ratio,
                    f"martingale ok={mart.ok}, max compensator ratio {worst_ratio:.4g}"))
                tables.append(("coupling_runs.csv",
                               ["replica", "V_T", "tau_N", "sup_err_X",
                                "sup_err_tilde", "two_V_over_N"],
                               [(r, run.V_T,
                                 "" if run.tau_N is None else run.tau_N,
                                 run.sup_err_X, run.sup_err_tilde,
                                 2.0 * run.V_T / N0)
                                for r, run in enumerate(runs)]))
            else:
                raise ValueError(f"unknown certificate {name!r}")
    except HARD_FAILURES as err:
        hard = f"{type(err).__name__}: {err}"

    bundle = CertificateBundle(results, hard, tail_ok)
    if write:
        stamp = f"config={cfg.config_hash()} master_seed={cfg.master_seed}"
        for fname, cols, rows in tables:
            write_csv(cfg.out_dir / fname, stamp, cols, rows)
        write_csv(cfg.out_dir / "certificates.csv", stamp,
                  ["certificate", "passed", "margin", "detail"],
                  [(r.name, int(r.passed), r.margin, r.detail) for r in results]
                  + ([("hard_failure", 0, math.nan, hard)] if hard else []))
        _write_metadata(cfg, {"tail_ok": tail_ok})
    return bundle


# ---------------------------------------------------------------------------
# single-run helpers for the CLI
# ---------------------------------------------------------------------------

def single_ssa(cfg: ExperimentConfig, N: Optional[int] = None, seed: Optional[int] = None):
    model = build_model(cfg.model)
    N = N or cfg.n_list[0]
    xi0 = round_initial(cfg.density, N)
    return simulate(model, xi0, N, cfg.horizon,
                    seed if seed is not None else replica_seed(cfg.master_seed, N, 0),
                    event_cap=cfg.event_cap)


def single_ode(cfg: ExperimentConfig, N: Optional[int] = None) -> OdeSolution:
    N = N or cfg.n_list[0]
    xi0 = round_initial(cfg.density, N)
    return limit_trajectory(cfg, build_model(cfg.model), xi0.to_dense().astype(float) / N)


def single_tilde(cfg: ExperimentConfig, N: Optional[int] = None, seed: Optional[int] = None):
    model = build_model(cfg.model)
    N = N or cfg.n_list[0]
    xi0 = round_initial(cfg.density, N)
    sol = limit_trajectory(cfg, model, xi0.to_dense().astype(float) / N)
    return simulate_tilde(model, xi0, N, cfg.horizon, sol,
                          seed if seed is not None else replica_seed(cfg.master_seed, N, 0))


def coupled_summary(cfg: ExperimentConfig, N: Optional[int] = None,
                    replicas: Optional[int] = None, write: bool = True):
    """Coupled replicas with the standard summary CSV."""
    model = build_model(cfg.model)
    N = N or cfg.n_list[0]
    R = replicas or cfg.replicas
    xi0 = round_initial(cfg.density, N)
    sol = limit_trajectory(cfg, model, xi0.to_dense().astype(float) / N)
    rates = TildeRates(model, sol, N)
    runs = [simulate_coupled(model, xi0, N, cfg.horizon, sol,
                             replica_seed(cfg.master_seed, N, r), eval_times=[cfg.horizon],
                             event_cap=cfg.event_cap, rates=rates)
            for r in range(R)]
    if write:
        stamp = f"config={cfg.config_hash()} master_seed={cfg.master_seed}"
        write_csv(cfg.out_dir / "coupled.csv", stamp,
                  ["replica", "seed", "V_T", "tau_N", "sup_err_X",
                   "sup_err_tilde", "two_V_over_N"],
                  [(r, f"[{cfg.master_seed},{N},{r}]", run.V_T,
                    "" if run.tau_N is None else run.tau_N,
                    run.sup_err_X, run.sup_err_tilde, 2.0 * run.V_T / N)
                   for r, run in enumerate(runs)])
        _write_metadata(cfg)
    return runs
