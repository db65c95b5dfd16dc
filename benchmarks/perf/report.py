"""One result schema: printing, the budget table, documents and history."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional

import numpy

from spec import END_TO_END, PER_LAYER, ROLE_SOURCES, ROLES, SPECS

SCHEMA = 1
ROOT = Path(__file__).resolve().parents[2]


def fingerprint() -> Dict[str, object]:
    """What the numbers were measured on."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _number(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_run(doc: Dict[str, object], traced: bool) -> None:
    """Every metric by name, with unit and sample count."""
    mode = "traced, per layer" if traced else "untraced, end to end"
    print(f"== {doc['workload']} ({mode}; seed {doc['seed']}; "
          f"inputs {doc['inputs_sha256'][:12]}; "
          f"{doc['attempted']} attempted, {doc['failed']} failed) ==")
    for name, entry in doc["metrics"].items():
        line = f"  {name:<36} {_number(entry['value']):>12} {entry['unit']:<6}"
        if traced:
            line += f" -> {entry['moves']}"
        else:
            spread = ("" if entry["q1"] is None else
                      f" median={_number(entry['median'])}"
                      f" q1={_number(entry['q1'])} q3={_number(entry['q3'])}")
            quantile = f" p{entry['quantile'] * 100:g}" if "quantile" in entry else ""
            line += (f" rounds={entry['rounds']} samples={entry['samples']}"
                     f"{spread}{quantile} bound={entry['bound']:.0%}")
        print(line)


def budget_rows(doc: Dict[str, object]) -> List[List[object]]:
    """Where one wire search's median goes: ``[indent, label, ms]`` rows.

    Top-level rows are self times that add up to the wire p50 but for
    the remainder (medians do not add exactly); indented rows split the
    row above them and are not added again.
    """
    value = {name: entry["value"] for name, entry in doc["metrics"].items()}
    budget = doc["budget"]
    total = budget["search_p50_ms"]
    probes = value["cluster.shard_probe_sum_ms"]
    rows: List[List[object]] = [
        [0, "search_p50_ms (wire, 1 connection)", total],
        [1, "net.self_ms", value["net.self_ms"]],
        [2, "of which codec (4 passes)", budget["codec_ms"]],
        [2, "status-frame round trip, for scale", value["net.status_rtt_ms"]],
        [1, "gateway.self_ms", value["gateway.self_ms"]],
        [1, "cluster.scatter_self_ms", value["cluster.scatter_self_ms"]],
        [1, "cluster.shard_probe_sum_ms", probes],
    ]
    rows += [[2, f"of which service {stage}", share * probes]
             for stage, share in budget["probe_shares"].items()]
    explained = sum(ms for indent, _label, ms in rows if indent == 1)
    rows.append([1, "unexplained remainder", total - explained])
    return rows


def print_budget(doc: Dict[str, object]) -> None:
    rows = budget_rows(doc)
    total = rows[0][2]
    print(f"-- latency budget: {doc['workload']} --")
    for indent, label, ms in rows:
        print(f"  {'  ' * indent}{label:<{44 - 2 * indent}} "
              f"{ms:9.4f} ms {ms / total:7.1%}")


def contract_line(doc: Dict[str, object], traced: bool) -> str:
    """The driver's result: the last line of standard output.

    The driver wants every listed metric from every workload.  Untraced,
    each role is filled from the workload's own metric.  Traced, a layer
    the workload does not load was not measured and reads 0.
    """
    metrics = doc["metrics"]
    kind = SPECS[doc["workload"]].kind
    out = {}
    if traced:
        for name, declared in PER_LAYER.items():
            value = metrics[name]["value"] if kind in declared.on else 0.0
            out[name] = {"value": value, "unit": declared.unit}
    else:
        for role, declared in ROLES.items():
            name = ROLE_SOURCES[kind][role]
            out[role] = {"value": metrics[name]["value"] * END_TO_END[name].scale,
                         "unit": declared.unit}
    return json.dumps({
        "correct": doc["failed"] == 0, "attempted": doc["attempted"],
        "failed": doc["failed"], "metrics": out,
    })


def document(seed: int, runs: Dict[str, Dict[str, Optional[dict]]]) -> Dict[str, object]:
    """The single result document: ``runs[workload] = {"untraced", "traced"}``."""
    workloads = {}
    for name, pair in runs.items():
        untraced, traced = pair.get("untraced"), pair.get("traced")
        first = untraced or traced
        entry = {"why": first["why"], "inputs_sha256": first["inputs_sha256"]}
        if untraced:
            entry.update(rounds=untraced["rounds"],
                         attempted=untraced["attempted"],
                         failed=untraced["failed"], end_to_end=untraced["metrics"])
        if traced:
            entry.update(per_layer=traced["metrics"],
                         traced_attempted=traced["attempted"],
                         traced_failed=traced["failed"])
            if "budget" in traced:
                entry["budget"] = traced["budget"]
        workloads[name] = entry
    return {"schema": SCHEMA, "git_commit": git_commit(), "seed": seed,
            "machine": fingerprint(), "workloads": workloads}


def write(doc: Dict[str, object], out: Optional[str], history: Optional[str]) -> None:
    if out:
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if history:
        with open(history, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
