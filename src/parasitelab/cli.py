"""Command-line entry points.

Subcommands: ``simulate`` (one exact path), ``ode`` (limit trajectory),
``tilde`` (one independent-individuals path), ``couple`` (coupled
replicas with summary CSV), ``converge`` (the rate study) and
``certify`` (the certificate suite; its exit status is the pass/fail
contract).  Every subcommand takes ``--config`` plus targeted
overrides; a config that cannot be loaded exits 2 as a usage error, and
a hard failure (``harness.HARD_FAILURES``) exits 2 with one line on
stderr.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (HARD_FAILURES, ExperimentConfig, coupled_summary, run_certificates,
                      run_convergence, single_ode, single_ssa, single_tilde)

TAIL_WARNING = "warning: terminal tail mass above budget; raise the truncation"


def _load(args) -> ExperimentConfig:
    """The config file with the command-line overrides, validated as a whole."""
    raw = ExperimentConfig.from_file(args.config).raw
    sim = raw.setdefault("sim", {})
    for key, value in (("master_seed", args.seed), ("replicas", args.replicas),
                       ("n_list", None if args.n is None else [args.n])):
        if value is not None:
            sim[key] = value
    if args.out:
        raw.setdefault("output", {})["directory"] = args.out
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="parasitelab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "ode", "tilde", "couple", "converge", "certify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--replicas", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
    except (OSError, ValueError) as err:     # missing file, bad JSON, bad config
        parser.error(f"config {args.config}: {err}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"config={cfg.config_hash()} master_seed={cfg.master_seed}"
    try:
        return _run(args, cfg, stamp)
    except HARD_FAILURES as err:
        print(f"HARD FAILURE: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def _run(args, cfg: ExperimentConfig, stamp: str) -> int:
    if args.command == "simulate":
        path = single_ssa(cfg, args.n, args.seed)
        path.write_csv(cfg.out_dir / "path.csv", header_extra=stamp)
        print(f"{path.n_jumps} jumps, final hosts {path.final.total_hosts}")
    elif args.command == "ode":
        sol = single_ode(cfg, args.n)
        sol.write_csv(cfg.out_dir / "ode.csv", header_extra=stamp)
        print(f"M_T={sol.M_T:.6g} G_T={sol.G_T:.6g} nodes={sol.ts.size} "
              f"tail_ok={sol.tail_ok}")
        if not sol.tail_ok:
            print(TAIL_WARNING, file=sys.stderr)
    elif args.command == "tilde":
        path = single_tilde(cfg, args.n, args.seed)
        path.write_csv(cfg.out_dir / "tilde.csv", header_extra=stamp)
        print(f"{path.n_jumps} jumps, final hosts {path.final.total_hosts}")
    elif args.command == "couple":
        runs = coupled_summary(cfg, args.n, args.replicas)
        taus = sum(1 for r in runs if r.tau_N is not None)
        mean_v = sum(r.V_T for r in runs) / len(runs)
        print(f"{len(runs)} coupled replicas, mean V_T {mean_v:.3f}, "
              f"{taus} tau crossings")
    elif args.command == "converge":
        report = run_convergence(cfg)
        for N, msg in report.aborted.items():
            print(f"N={N:6d}  aborted: {msg}", file=sys.stderr)
        for row in report.rows:
            print(f"N={row.N:6d}  mean={row.mean_err:.6g}  ratio={row.ratio:.4g}")
        print(f"slope {report.slope:.4f}  ci [{report.slope_ci[0]:.4f}, "
              f"{report.slope_ci[1]:.4f}]")
    elif args.command == "certify":
        bundle = run_certificates(cfg)
        for name, ok in bundle.tail_ok.items():
            if not ok:
                print(f"{TAIL_WARNING} (limit trajectory {name})", file=sys.stderr)
        for r in bundle.results:
            status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
            print(f"{status}  {r.name:24s} margin={r.margin:.4g}  {r.detail}")
        if bundle.hard_failure:
            print(f"HARD FAILURE: {bundle.hard_failure}", file=sys.stderr)
        return bundle.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
