"""Workloads of the parasitelab benchmark and their correctness gates.

Each workload is a closed loop of one study: a config built from the
benchmark's seed, one call into a public harness entry point (the same
one the ``parasitelab converge|certify|couple`` subcommand makes), and a
gate that decides whether the study's output is correct.  The seed
reaches the program only through the generated config.

Operations counted for ``attempted``/``failed``:

  - converge: replica paths (replicas x N values); capped replicas and
    the replicas of an aborted N fail;
  - certify: certificates (``concentration`` is one per N); failed,
    skipped and hard-failed certificates fail, and so does every
    certificate a hard failure kept from running;
  - couple: coupled runs; a run that raised fails every run of the study,
    because ``coupled_summary`` stops at the first one.

A study whose gate fails on an aggregate statistic (slope band, means,
martingale balance, compensator ratio) has no single culprit, so all of
its operations count as failed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from parasitelab import harness, tilde
from parasitelab.coupling import CouplingInvariantError, martingale_balance_check
from parasitelab.harness import CertificateBundle, ConvergenceReport, ExperimentConfig
from parasitelab.tilde import DominatingRateError

DEFAULT_SEED = 42
SLOPE_BAND = (-0.65, -0.35)
CONVERGE_WORKERS = 2

LUCHSINGER = {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0, "kappa": 1.0,
              "offspring": {"family": "poisson", "mean": 0.8}}
CERTIFICATES = ["growth", "lipschitz", "semigroup", "mild", "lemma_a1", "moment",
                "mean_identity", "concentration", "first_moment", "coupling"]


def converge_config(seed: int, out_dir: Path) -> dict:
    """Criterion 09: the paper's N^{-1/2} rate study."""
    return {"model": LUCHSINGER,
            "initial": {"density": [0.9, 0.1]},
            "sim": {"n_list": [50, 100, 200, 400, 800, 1600], "horizon": 2.0,
                    "replicas": 100, "master_seed": seed},
            "output": {"directory": str(out_dir)}}


def certify_config(seed: int, out_dir: Path) -> dict:
    """Every certificate on the criterion-09 model, n_list trimmed to two N."""
    return {"model": LUCHSINGER,
            "initial": {"density": [0.9, 0.1]},
            "sim": {"n_list": [50, 400], "horizon": 2.0, "master_seed": seed},
            "checks": {"run": CERTIFICATES, "replicas": 200},
            "output": {"directory": str(out_dir)}}


def couple_config(seed: int, out_dir: Path) -> dict:
    """Criterion 02's demographic instance: every coupled channel kind."""
    return {"model": {"name": "kretzschmar_modified", "nu": 1.5,
                      "offspring": {"family": "poisson", "mean": 0.6}, "mu": 1.0,
                      "kappa": 0.3, "alpha_extra": 0.2, "beta_birth": 0.5,
                      "birth_discount": 0.9, "c": 1.0},
            "initial": {"density": [0.5, 0.3, 0.2]},
            "sim": {"n_list": [100], "horizon": 1.0, "replicas": 20, "master_seed": seed},
            "output": {"directory": str(out_dir)}}


@dataclass(frozen=True)
class Outcome:
    """One study's verdict and the operation counts behind fail_frac."""

    ok: bool
    attempted: int
    failed: int
    replicas: int       # Monte Carlo replicas the study completed
    detail: str


def _outcome(ok: bool, attempted: int, failed: int, replicas: int, detail: str) -> Outcome:
    if not ok and failed == 0:
        failed = attempted      # an aggregate gate failed: no single culprit
    return Outcome(ok, attempted, failed, replicas, detail)


def judge_converge(cfg: ExperimentConfig, report: ConvergenceReport) -> Outcome:
    attempted = cfg.replicas * len(cfg.n_list)
    failed = sum(r.capped for r in report.rows) + cfg.replicas * len(report.aborted)
    in_band = SLOPE_BAND[0] <= report.slope <= SLOPE_BAND[1]
    decreasing = report.strictly_decreasing()
    return _outcome(in_band and decreasing and not report.aborted, attempted, failed,
                    sum(r.replicas for r in report.rows),
                    f"slope {report.slope:.4f} (band {SLOPE_BAND}), "
                    f"means strictly decreasing: {decreasing}")


def judge_certify(cfg: ExperimentConfig, bundle: CertificateBundle, replicas: int) -> Outcome:
    attempted = len(cfg.checks) + (len(cfg.n_list) - 1 if "concentration" in cfg.checks else 0)
    bad = [r.name for r in bundle.results if r.skipped or not r.passed]
    failed = len(bad) + attempted - len(bundle.results)
    detail = f"exit code {bundle.exit_code}; failed {bad}"
    if bundle.hard_failure:
        detail += f"; hard failure {bundle.hard_failure}"
    return _outcome(bundle.exit_code == 0, attempted, failed, replicas, detail)


def judge_couple(cfg: ExperimentConfig, runs=None, error: Optional[Exception] = None) -> Outcome:
    attempted = cfg.replicas
    if error is not None:
        return Outcome(False, attempted, attempted, 0, f"{type(error).__name__}: {error}")
    balance = martingale_balance_check(runs)
    worst = max(r.compensator_bound_ratio for r in runs)
    return _outcome(balance.ok and worst <= 1.0, attempted, 0, len(runs),
                    f"martingale ok: {balance.ok}, max compensator ratio {worst:.4g}")


def study_converge(cfg: ExperimentConfig) -> Outcome:
    return judge_converge(cfg, harness.run_convergence(cfg))


# the calls that each make one Monte Carlo replica of a certificate, on the
# module attributes that run_certificates and the tilde checks resolve
REPLICA_CALLS = ((tilde, "simulate_tilde"), (harness, "simulate_coupled"),
                 (harness, "simulate"))


@contextmanager
def counting(targets):
    """Count the calls to each ``(owner, attribute)`` that return normally."""
    calls = [0]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

    def counted(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[0] += 1
            return result
        return wrapper

    try:
        for owner, attr, fn in saved:
            setattr(owner, attr, counted(fn))
        yield calls
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def study_certify(cfg: ExperimentConfig) -> Outcome:
    with counting(REPLICA_CALLS) as replicas:
        bundle = harness.run_certificates(cfg)
    return judge_certify(cfg, bundle, replicas[0])


def study_couple(cfg: ExperimentConfig) -> Outcome:
    try:
        runs = harness.coupled_summary(cfg)
    except (CouplingInvariantError, DominatingRateError) as err:
        return judge_couple(cfg, error=err)
    return judge_couple(cfg, runs)


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, Path], dict]
    study: Callable[[ExperimentConfig], Outcome]
    workers: int      # process-pool size of the end-to-end run


WORKLOADS = {w.name: w for w in (
    Workload("converge", converge_config, study_converge, CONVERGE_WORKERS),
    Workload("certify", certify_config, study_certify, 1),
    Workload("couple", couple_config, study_couple, 1),
)}


def study_seed(seed: int, k: int) -> int:
    """Master seed of the k-th study of a run: the run's seed first, then
    seeds drawn from it, so runs on nearby seeds share no study."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint32)[0])


def build(workload: Workload, seed: int, out_dir: Path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(workload.config(seed, out_dir))


def run_study(workload: Workload, cfg: ExperimentConfig, workers: int) -> Outcome:
    """One study, with the harness process pool sized to ``workers``."""
    os.environ[harness.WORKERS_ENV] = str(workers)
    return workload.study(cfg)


@dataclass(frozen=True)
class Tally:
    correct: bool
    attempted: int
    failed: int

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tally(outcomes: list[Outcome]) -> Tally:
    """A run is correct only if every study passed its gate."""
    return Tally(bool(outcomes) and all(o.ok for o in outcomes),
                 sum(o.attempted for o in outcomes), sum(o.failed for o in outcomes))
