"""Steadiness check and baseline record for the parasitelab benchmark.

    python3 perfbench/steadiness.py [--seeds 1-10] [--traced 2]
        [--out perfbench/baseline.json] [--compare earlier.json]

Runs ``run.py`` once per seed on every workload in BENCHMARK.json,
untraced, and reports for each end-to-end metric the median, the
quartiles (``statistics.quantiles`` with n=4) and the spread,
(q3 - q1) / median, beside the metric's bound in BENCHMARK.json.  A
metric is steady when its spread is below a third of its bound;
``setup_s`` is held to that too.  Then it makes ``--traced`` traced runs
per workload on the default seed, records the per-layer metrics of the
first, and checks that the exact counts repeat across them.  With ``--compare`` it also
checks each median against the same workload's median in an earlier
result: it may be worse by at most the metric's bound.  Run it from the
repository root; it writes the result to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("ssa.simulate.jumps", "ode.density.calls",
                "coupling.simulate_coupled.candidates", "tilde.simulate_tilde.individuals")


def run(workload: str, seed, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{done.stderr}")
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), {})
    return {"result": json.loads(lines[-1]), "env": env, "exit": done.returncode}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    parser.add_argument("--compare", default=None, help="earlier result to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    seeds = parse_seeds(args.seeds)
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run(name, seed, spec["run_seconds"], 0))
            r = runs[-1]["result"]
            print(f"{name} seed {seed}: correct {r['correct']} failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{m}={v['value']:.5g}" for m, v in r["metrics"].items()), flush=True)
        entry = {"correct_runs": sum(r["result"]["correct"] for r in runs), "runs": len(runs),
                 "environment": runs[0]["env"], "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "unit": runs[0]["result"]["metrics"][metric]["unit"], "values": values}
            ok = spread < bound / 3
            steady &= ok
            verdict = ("ok" if ok else "NOT STEADY, within bound" if spread <= bound
                       else "NOT STEADY, BEYOND BOUND")
            print(f"  {metric:16s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                  f"spread {spread:.4f}  bound {bound}  {verdict}")
            if name in earlier:
                before = earlier[name]["end_to_end"][metric]["median"]
                worse = (med / before - 1.0) if lower_is_better[metric] else (1.0 - med / before)
                agree = worse <= bound
                steady &= agree
                entry["end_to_end"][metric]["earlier_median"] = before
                entry["end_to_end"][metric]["worse_than_earlier"] = worse
                print(f"  {'':16s} earlier median {before:10.5g}  worse by {worse:+.4f}  "
                      f"{'within bound' if agree else 'BEYOND BOUND'}")
        traced = [run(name, None, spec["run_seconds"], 1)["result"] for _ in range(args.traced)]
        if traced:
            layers = traced[0]["metrics"]
            repeat = all(t["metrics"][c]["value"] == layers[c]["value"]
                         for t in traced[1:] for c in EXACT_COUNTS)
            entry["traced"] = {"runs": len(traced), "correct": all(t["correct"] for t in traced),
                               "exact_counts_repeat": repeat,
                               "per_layer": {m: [v["value"], v["unit"]] for m, v in layers.items()}}
            print(f"  traced x{len(traced)}: exact counts repeat: {repeat}; shares "
                  + " ".join(f"{m}={v['value']:.3f}" for m, v in layers.items()
                             if m.endswith(".share")))
        record["workloads"][name] = entry
        steady &= entry["correct_runs"] == len(runs)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
