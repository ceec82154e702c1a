"""parasitelab benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload converge|certify|couple
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports parasitelab from ``src/``.

``--trace 0`` repeats the workload's study in a closed loop, each time on
a master seed derived from ``--seed``, starting another only while it
should still finish within ``--seconds``, and
reports the end-to-end metrics: median ``wall_s``, ``replicas_per_s`` and
``cpu_s`` over the studies, the maximum ``peak_rss_mb``, and ``setup_s``,
the median of several fresh interpreters importing parasitelab and
building the config and model.

``--trace 1`` runs the study once untraced and once traced, both in a
single process, and reports the per-layer metrics of the traced one
(see tracing.py) beside the end-to-end table of the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness gate prints it with ``correct: false`` and exits 1.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, so harness workers cannot oversubscribe
# the cores; set before numpy is imported, inherited by every child
THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5

sys.path.insert(0, str(SRC))
try:
    import numpy
    import scipy
    import parasitelab
except ImportError as err:
    sys.exit(f"cannot import parasitelab from {SRC}: {err}")
if Path(parasitelab.__file__).resolve().parent.parent != SRC:
    sys.exit(f"parasitelab imported from {parasitelab.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from parasitelab.harness import ExperimentConfig, build_model
build_model(ExperimentConfig.from_dict(json.loads(sys.argv[2])).model)
print(time.perf_counter() - t0)
"""


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "PARASITELAB_WORKERS": os.environ.get("PARASITELAB_WORKERS"),
            **{k: os.environ.get(k) for k in THREAD_PINS}}


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any reaped child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def timed_study(workload, cfg, workers: int):
    """(outcome, wall seconds, cpu seconds) of one study; set-up excluded."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    outcome = workloads.run_study(workload, cfg, workers)
    return outcome, time.perf_counter() - t0, cpu_seconds() - c0


def setup_seconds(raw_cfg: dict) -> list[float]:
    """Import plus config and model build, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(raw_cfg)],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout))
    return samples


def end_to_end(workload, seed: int, out_dir: Path, seconds: float):
    """Closed loop of studies; returns (outcomes, metrics name -> (value, unit, samples)).

    Study k runs on master seed ``workloads.study_seed(seed, k)``, so the
    medians average over the inputs of several studies, not one.
    """
    outcomes, walls, cpus, rates = [], [], [], []
    start = time.perf_counter()
    while True:
        cfg = workloads.build(workload, workloads.study_seed(seed, len(walls)), out_dir)
        outcome, wall, cpu = timed_study(workload, cfg, workload.workers)
        outcomes.append(outcome)
        walls.append(wall)
        cpus.append(cpu)
        rates.append(outcome.replicas / wall)
        elapsed = time.perf_counter() - start
        if not outcome.ok or elapsed + statistics.median(walls) > seconds:
            break
    rss = peak_rss_mb()     # before the set-up interpreters run
    setup = setup_seconds(workload.config(seed, out_dir))
    n = len(walls)
    return outcomes, {
        "wall_s": (statistics.median(walls), "s", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "replicas_per_s": (statistics.median(rates), "1/s", n),
        "cpu_s": (statistics.median(cpus), "s", n),
        "peak_rss_mb": (rss, "MB", n),
    }


def traced(workload, cfg, seed: int):
    """Untraced then traced single-process study; per-layer metrics of the traced one."""
    plain, plain_wall, plain_cpu = timed_study(workload, cfg, 1)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        t0 = time.perf_counter()
        outcome = workloads.run_study(workload, cfg, 1)
        wall = time.perf_counter() - t0
    dump_path = OUT / f"trace-{workload.name}-{seed}.json"
    tracer.dump(dump_path, wall)
    with open(dump_path) as fh:
        layers = tracing.summarize(json.load(fh))
    layers["trace.overhead_frac"] = (wall / plain_wall - 1.0, "frac", 1)
    e2e = {"wall_s": (plain_wall, "s", 1),
           "replicas_per_s": (plain.replicas / plain_wall, "1/s", 1),
           "cpu_s": (plain_cpu, "s", 1)}
    return [plain, outcome], e2e, layers


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    print(f"# {'metric':44s} {'value':>14s} {'unit':6s} {'n':>8s}")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:44s} {value:14.6g} {unit:6s} {n:8d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="master seed of the generated config (default: the config's own)")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            cfg = workloads.build(workload, args.seed, out_dir)
            outcomes, e2e, layers = traced(workload, cfg, args.seed)
        else:
            outcomes, e2e = end_to_end(workload, args.seed, out_dir, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = workloads.tally(outcomes)
    print(f"# workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"# env {json.dumps(environment())}")
    for k, o in enumerate(outcomes):
        print(f"# study {k}: {'PASS' if o.ok else 'FAIL'}  {o.attempted} attempted, "
              f"{o.failed} failed  {o.detail}")
    e2e["fail_frac"] = (result.fail_frac, "frac", result.attempted)
    print_table("end to end" + (" (untraced, single process)" if args.trace else ""), e2e)
    shown = e2e
    if args.trace:
        print_table("per layer (traced)", layers)
        shown = layers
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in shown.items()
               if name != "fail_frac"}
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
