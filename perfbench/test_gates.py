"""Self-test of the benchmark's correctness gates and trace accounting.

    python3 -m pytest -q perfbench/test_gates.py     (or: python3 perfbench/test_gates.py)

Feeds each gate an output it must reject and checks that the study is
marked failed and that fail_frac counts it; no simulation runs.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from parasitelab import harness, tilde  # noqa: E402
from parasitelab.coupling import CouplingInvariantError  # noqa: E402
from parasitelab.harness import (CertificateBundle, CertificateResult,  # noqa: E402
                                 ConvergenceReport, ConvergenceRow)

OUT = Path("unused")


def _cfg(name: str):
    return workloads.build(workloads.WORKLOADS[name], workloads.DEFAULT_SEED, OUT)


def _convergence(cfg, slope: float) -> ConvergenceReport:
    rows = [ConvergenceRow(N, cfg.replicas, 0, N ** slope, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
            for N in cfg.n_list]
    return ConvergenceReport(rows, slope, (slope - 0.05, slope + 0.05), 42, "hash")


def test_converge_slope_outside_band_fails_the_run():
    cfg = _cfg("converge")
    good = workloads.judge_converge(cfg, _convergence(cfg, -0.5))
    bad = workloads.judge_converge(cfg, _convergence(cfg, -0.2))
    assert good.ok and good.failed == 0 and good.attempted == 600
    assert not bad.ok and bad.failed == bad.attempted == 600
    run = workloads.tally([good, bad])
    assert not run.correct and run.failed == 600 and math.isclose(run.fail_frac, 0.5)


def test_converge_means_not_decreasing_fails():
    cfg = _cfg("converge")
    report = _convergence(cfg, -0.5)
    report.rows[-1].mean_err = report.rows[-2].mean_err
    assert not workloads.judge_converge(cfg, report).ok


def test_certify_exit_code_one_fails_the_run():
    cfg = _cfg("certify")
    names = [n for n in cfg.checks if n != "concentration"] + \
        [f"concentration_N{n}" for n in cfg.n_list]
    results = [CertificateResult(n, n != "mild", 0.1) for n in names]
    bundle = CertificateBundle(results)
    assert bundle.exit_code == 1
    out = workloads.judge_certify(cfg, bundle, 900)
    assert not out.ok and out.attempted == 11 and out.failed == 1
    run = workloads.tally([out])
    assert not run.correct and math.isclose(run.fail_frac, 1 / 11)


def test_certify_hard_failure_counts_the_certificates_it_stopped():
    cfg = _cfg("certify")
    bundle = CertificateBundle([CertificateResult("growth", True, 0.1)],
                               hard_failure="CouplingInvariantError: broke")
    out = workloads.judge_certify(cfg, bundle, 0)
    assert bundle.exit_code == 2 and not out.ok and out.failed == 10


def test_certify_replicas_are_the_replica_calls_the_program_made():
    cfg = _cfg("certify")

    def fake_run_certificates(cfg):
        for _ in range(3):
            tilde.simulate_tilde()
        harness.simulate_coupled()
        harness.simulate()
        try:
            tilde.simulate_tilde(fail=True)
        except RuntimeError:
            pass
        return CertificateBundle([CertificateResult("moment", True, 0.1)])

    def fake_tilde(fail=False):
        if fail:
            raise RuntimeError("a replica that raised is not counted")

    def fake_sim():
        return None

    fakes = {(harness, "run_certificates"): fake_run_certificates,
             (harness, "simulate_coupled"): fake_sim, (harness, "simulate"): fake_sim,
             (tilde, "simulate_tilde"): fake_tilde}
    saved = {key: getattr(*key) for key in fakes}
    for (owner, attr), fn in fakes.items():
        setattr(owner, attr, fn)
    try:
        out = workloads.study_certify(cfg)
        restored = all(getattr(*key) is fn for key, fn in fakes.items())
    finally:
        for (owner, attr), fn in saved.items():
            setattr(owner, attr, fn)
    assert out.replicas == 5 and restored


def test_couple_raised_invariant_error_fails_the_run():
    cfg = _cfg("couple")

    def broken(cfg, *args, **kwargs):
        raise CouplingInvariantError("sum Z2 exceeds Z4 + sum Z3")

    original = harness.coupled_summary
    harness.coupled_summary = broken
    try:
        out = workloads.study_couple(cfg)
    finally:
        harness.coupled_summary = original
    assert not out.ok and out.failed == out.attempted == 20
    assert "CouplingInvariantError" in out.detail
    run = workloads.tally([out])
    assert not run.correct and run.fail_frac == 1.0


def test_accounted_frac_shows_time_outside_the_spans():
    tracer = tracing.Tracer()
    leaf = tracer.leaf("ode.density", lambda: time.sleep(0.01))

    def child():
        leaf()
        time.sleep(0.01)

    inner = tracer.span("ssa.simulate", child)

    def root():
        inner()
        inner()
        time.sleep(0.01)

    t0 = time.perf_counter()
    time.sleep(0.05)                # untraced, like a workload's gate
    tracer.span("harness.run_convergence", root)()
    wall = time.perf_counter() - t0
    dump = {"wall_s": wall, "counters": {},
            "spans": [vars(s) for s in tracer.spans]}
    metrics = tracing.summarize(dump)
    assert metrics["ssa.simulate.calls"][0] == 2
    assert metrics["ode.density.calls"][0] == 2
    assert metrics["trace.wall_s"][0] == wall
    assert 0.2 < metrics["trace.accounted_frac"][0] < 0.8
    assert metrics["ssa.share"][0] > 0.1 and metrics["ode.share"][0] > 0.1


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
