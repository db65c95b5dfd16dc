#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end to end and layer by layer.

    python benchmarks/perf/run.py [--workload NAME ...] [--seed N]
                                  [--out PATH] [--history PATH]

runs every named workload (default: all four) untraced for the
end-to-end metrics and once more traced for the per-layer metrics, each
in a fresh process, checks every answer, prints every metric and the
wire latency budgets, and exits non-zero on any wrong answer.

    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

is one such process: the form ``BENCHMARK.json`` names.  Its last line of
output is the JSON result the driver reads.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"error: {ROOT / 'src' / 'repro'} not found; the benchmark "
             "measures the program in this checkout and needs its source")
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
from layers import run_traced  # noqa: E402
from spec import SPECS  # noqa: E402
from workloads import run_untraced  # noqa: E402


def run_one(args, workload: str) -> int:
    """One workload, one mode, in this process."""
    spec = SPECS[workload]
    traced = bool(args.trace)
    workdir = HERE / "_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if traced:
            run = run_traced(spec, args.seed, workdir,
                             Path(args.spans) if args.spans else None)
        else:
            run = run_untraced(spec, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.print_run(run, traced)
    if "budget" in run:
        report.print_budget(run)
    mode = "traced" if traced else "untraced"
    report.write(report.document(args.seed, {workload: {mode: run}}),
                 args.out, args.history)
    print(report.contract_line(run, traced))
    return 1 if run["failed"] else 0


def run_all(args, workloads) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    scratch = HERE / "_work" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    merged = report.document(args.seed, {})
    status = 0
    try:
        for workload in workloads:
            for trace in (0, 1):
                part = scratch / f"{workload}-{trace}.json"
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", workload, "--seed", str(args.seed),
                           "--trace", str(trace), "--out", str(part)]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                done = subprocess.run(command)
                status = status or done.returncode
                if part.is_file():
                    entry = json.loads(part.read_text())["workloads"][workload]
                    merged["workloads"].setdefault(workload, {}).update(entry)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report.write(merged, args.out, args.history)
    failed = sum(entry.get("failed", 0) + entry.get("traced_failed", 0)
                 for entry in merged["workloads"].values())
    print(f"== {len(merged['workloads'])} workloads, {failed} failed operations, "
          f"exit {status} ==")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(SPECS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="drives corpus, shuffle, Zipf picks and query order")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for about this long instead of the "
                             "spec's round count (never fewer than 3 rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process: 0 untraced "
                             "end-to-end, 1 traced per-layer")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--history", help="append the document as one JSON line")
    parser.add_argument("--spans", help="with --trace 1: write the harness's "
                                        "spans as JSONL")
    args = parser.parse_args(argv)
    workloads = args.workload or list(SPECS)
    if args.trace is None:
        return run_all(args, workloads)
    if len(workloads) != 1:
        parser.error("--trace runs exactly one --workload")
    return run_one(args, workloads[0])


if __name__ == "__main__":
    sys.exit(main())
