"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload join-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` prints the per-layer metrics of a traced run (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, with sample counts and tails.

The program is imported from ``src/`` next to this directory.  Without
it the benchmark prints an error and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("join-mix", "pebble-solve", "serve-zipf", "solve-deadline")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def find_program() -> None:
    """Put ``src/`` first on the import path, or exit 2 without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: no {src / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run(args: argparse.Namespace):
    """Import the workload (timed: imports count toward setup_s) and run it."""
    started = time.perf_counter()
    if args.workload == "serve-zipf":
        from perfbench import serve_zipf

        import_s = time.perf_counter() - started
        return serve_zipf.run(args.seed, args.seconds, bool(args.trace), import_s=import_s)
    from perfbench import passes

    if args.workload == "join-mix":
        from perfbench import join_mix as module
    elif args.workload == "pebble-solve":
        from perfbench import pebble_solve as module
    else:
        from perfbench import solve_deadline as module
    import_s = time.perf_counter() - started
    return passes.run_pass_workload(
        module, args.seed, args.seconds, bool(args.trace), import_s=import_s
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    find_program()
    from perfbench.common import describe

    report = run(args)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for line in report.notes:
        print(line)
    if report.outcome is not None:
        for line in describe(report.outcome, report.tail_pct):
            print(line)
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": report.failed == 0,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
