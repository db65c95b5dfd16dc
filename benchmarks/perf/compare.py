#!/usr/bin/env python3
"""Compare two sets of runs, per workload and end-to-end metric.

    python benchmarks/perf/compare.py A.json B.json

``A`` is the parent, ``B`` the change; each is a result document
(``run.py --out``) or a history file of several (``run.py --history``,
one JSON line per run).  Both sides are always summarized the same way.
With two or more runs on each side, a metric is summarized by the median
and quartiles of its reported value across the runs.  Otherwise each
side is one run, summarized by the median and quartiles of the per-round
values it recorded (a metric measured once per run, like ``setup_s``,
has no quartiles then and is judged on the difference alone).

Per row: B's median against A's, as a share of A's, in the direction
that is worse for the metric.  ``regression`` when that exceeds the
metric's bound and the two quartile ranges are disjoint; ``unresolved``
when it exceeds the bound but the ranges overlap, or when either side's
own spread is wider than the bound — such a row says nothing either way.
``error_share`` has an absolute bound of zero.  When both sides ran one
seed, the inputs' hashes and every count metric must be identical.

Exit code 1 on any regression or determinism failure, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

Summary = Tuple[float, Optional[float], Optional[float]]   # median, q1, q3


def load(path: str) -> List[dict]:
    """A document, or every line of a history file."""
    text = Path(path).read_text()
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def summarize(runs: List[dict], workload: str, metric: str,
              across_runs: bool) -> Optional[Summary]:
    """Median and quartiles of ``metric``: of its value across ``runs``,
    or of the first run's per-round values."""
    entries = [run["workloads"][workload]["end_to_end"][metric]
               for run in runs
               if metric in run["workloads"].get(workload, {}).get("end_to_end", {})]
    if not entries:
        return None
    if across_runs:
        values = [entry["value"] for entry in entries]
        q1, _median, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3
    entry = entries[0]
    if entry["median"] is None:
        return entry["value"], None, None
    return entry["median"], entry["q1"], entry["q3"]


def verdict(a: Summary, b: Summary, better: str, bound: float) -> Tuple[float, str]:
    """Relative worsening of ``b`` against ``a`` and what it amounts to."""
    (a_med, a_q1, a_q3), (b_med, b_q1, b_q3) = a, b
    if bound == 0.0:
        return b_med - a_med, "regression" if b_med > 0 else "ok"
    worse = (b_med - a_med) / a_med if better == "lower" else (a_med - b_med) / a_med
    known = None not in (a_q1, a_q3, b_q1, b_q3)
    overlap = known and a_q1 <= b_q3 and b_q1 <= a_q3
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med) if known else 0.0
    if abs(worse) > bound:
        if overlap:
            return worse, "unresolved"
        return worse, "regression" if worse > 0 else "improved"
    return worse, "unresolved" if spread > bound else "ok"


def exact_values(run: dict) -> Dict[Tuple[str, str], object]:
    """Everything that must repeat bit for bit under one seed."""
    out: Dict[Tuple[str, str], object] = {}
    for workload, entry in run["workloads"].items():
        out[workload, "inputs_sha256"] = entry["inputs_sha256"]
        for name, metric in entry.get("per_layer", {}).items():
            if metric.get("exact"):
                out[workload, name] = metric["value"]
    return out


def determinism_failures(runs: List[dict]) -> List[str]:
    if len({run["seed"] for run in runs}) != 1:
        return []
    reference = exact_values(runs[0])
    failures = []
    for run in runs[1:]:
        for key, value in exact_values(run).items():
            if key in reference and reference[key] != value:
                failures.append(f"{key[0]} {key[1]}: {reference[key]} != {value}")
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_runs, b_runs = load(argv[0]), load(argv[1])
    across_runs = min(len(a_runs), len(b_runs)) >= 2
    status = 0
    print(f"A: {len(a_runs)} run(s), B: {len(b_runs)} run(s); each side is "
          + ("its values across runs" if across_runs
             else "the rounds of its first run"))
    print(f"{'workload':<14}{'metric':<28}{'A':>12}{'B':>12}{'worse by':>10}"
          f"{'bound':>8}  verdict")
    for workload, entry in a_runs[0]["workloads"].items():
        for name, declared in entry.get("end_to_end", {}).items():
            a = summarize(a_runs, workload, name, across_runs)
            b = summarize(b_runs, workload, name, across_runs)
            if a is None or b is None:
                continue
            worse, word = verdict(a, b, declared["better"], declared["bound"])
            status |= word == "regression"
            print(f"{workload:<14}{name:<28}{a[0]:>12.5g}{b[0]:>12.5g}"
                  f"{worse:>+10.1%}{declared['bound']:>8.0%}  {word}")
    for failure in determinism_failures(a_runs + b_runs):
        print(f"not deterministic under one seed: {failure}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
