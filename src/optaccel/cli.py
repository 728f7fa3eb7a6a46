"""Command-line entry point.

Exit codes: 0 success, 1 verification-criterion failure, 2 usage or config
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (OutputError, SpecError, _write, emit_plotdata,
                      load_spec, run_experiment)
from .optimizers import make_schedule
from .verify import SUITES, report_lines, run_suite


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="optaccel",
        description="Accelerated minibatch SGD experiments and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("spec", help="path to the experiment spec JSON")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes, at least 1 "
                            "(default: the spec's workers)")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES),
                          help="suite name")
    p_verify.add_argument("--report", default=None,
                          help="write the JSON report to this path")

    p_plot = sub.add_parser("plotdata", help="emit plot-ready CSV")
    p_plot.add_argument("kind",
                        choices=["rate_curve", "speedup_curve", "stage_decay"])
    p_plot.add_argument("inputs", nargs="+",
                        help="summary/speedup/trace CSV files")
    p_plot.add_argument("--out", required=True, help="output CSV path")

    p_sched = sub.add_parser("schedule",
                             help="print the stepsize/momentum table")
    p_sched.add_argument("--H", type=float, required=True,
                         help="smoothness constant")
    p_sched.add_argument("--b", type=int, required=True, help="minibatch size")
    p_sched.add_argument("--T", type=int, required=True, help="horizon")
    p_sched.add_argument("--B", type=float, required=True,
                         help="feasible-ball radius")
    p_sched.add_argument("--lstar", type=float, default=0.0,
                         help="minimum expected loss (sets noise to 2*H*lstar)")
    return parser


def _cmd_run(args) -> int:
    spec = load_spec(args.spec)
    manifest = run_experiment(spec, workers=args.workers)
    n_art = len(manifest["artifacts"])
    n_fail = len(manifest["failures"])
    print(f"wrote {n_art} artifacts to {spec.output_dir} "
          f"(content hash {manifest['content_hash'][:12]})")
    if n_fail:
        for f in manifest["failures"]:
            print(f"cell failed: {f['stem']}: {f['error']}", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    # machine-readable report on stdout, human-readable summary on stderr
    print(text, end="")
    for line in report_lines(report):
        print(line, file=sys.stderr)
    if args.report:
        _write(Path(args.report), text)
    return 0 if report["passed"] else 1


def _cmd_plotdata(args) -> int:
    emit_plotdata(args.kind, args.inputs, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_schedule(args) -> int:
    sched = make_schedule(args.H, args.b, args.T, args.B, args.lstar)
    print(f"gamma = {sched.gamma:.12g}  "
          f"(H={args.H:g}, b={args.b}, T={args.T}, B={args.B:g}, "
          f"noise_sq={sched.noise_sq:g})")
    print("t,beta_t,gamma_t")
    for t in range(sched.T):
        print(f"{t},{sched.beta(t):.12g},{sched.gamma_t(t):.12g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "verify": _cmd_verify,
                "plotdata": _cmd_plotdata, "schedule": _cmd_schedule}
    try:
        return handlers[args.command](args)
    except OutputError as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 3
    except (SpecError, FileNotFoundError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # infrastructure failure
        print(f"runtime failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
