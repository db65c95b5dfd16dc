"""The whole harness on specs shrunk to 200 records: sizes are data."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import report
from layers import run_traced
from spec import END_TO_END, PER_LAYER, ROLES, SPECS
from workloads import run_untraced

ROOT = Path(__file__).resolve().parents[3]
SMALL = {
    "batch_join": dict(n_base=120),
    "wire_light": dict(n_base=200, n_queries=600, n_paired=300),
    "wire_heavy": dict(n_base=200, n_queries=296, batch_frames=3),
    "ingest_mixed": dict(n_base=200, n_queries=120, n_stream=160),
}
#: Phases the harness's own spans must show, by workload.
PHASES = {
    "batch_join": ["data", "core", "driver", "job"],
    "wire_light": ["data", "service", "cluster", "gateway", "net"],
    "wire_heavy": ["data", "service", "cluster", "gateway", "net"],
    "ingest_mixed": ["data", "cluster", "ingest", "net"],
}


def small(name):
    return dataclasses.replace(SPECS[name], rounds=3, warmup=5, oracle_sample=30,
                               setup_repeats=1, sweep_queries=40, **SMALL[name])


@pytest.mark.parametrize("name", list(SPECS))
def test_untraced_run_is_correct_and_complete(name, tmp_path):
    spec = small(name)
    run = run_untraced(spec, seed=11, seconds=None, workdir=tmp_path)
    assert run["failed"] == 0 and run["attempted"] > 0
    assert run["rounds"] == 3
    assert set(run["metrics"]) == {
        metric for metric, declared in END_TO_END.items() if spec.kind in declared.on}
    for metric, entry in run["metrics"].items():
        assert entry["unit"] == END_TO_END[metric].unit
        assert entry["bound"] == END_TO_END[metric].bound
        assert len(entry["per_round"]) == entry["rounds"]
    assert run["metrics"]["error_share"]["value"] == 0.0
    line = json.loads(report.contract_line(run, traced=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and set(line["metrics"]) == set(ROLES)
    for role, value in line["metrics"].items():
        assert value["value"] > 0 and value["unit"] == ROLES[role].unit


def test_a_modelled_cost_is_reported_exactly_as_a_round_read_it(tmp_path):
    # sim_cluster_s is the cost model's output, not machine time: nothing
    # may rescale it on the way into the document or the driver's line.
    run = run_untraced(small("batch_join"), seed=11, seconds=None, workdir=tmp_path)
    sim = run["metrics"]["sim_cluster_s"]
    assert sim["value"] == min(sim["per_round"])
    wall = run["metrics"]["join_wall_s"]
    assert wall["value"] == min(wall["per_round"])
    line = json.loads(report.contract_line(run, traced=False))
    assert line["metrics"]["latency_p50_ms"]["value"] == wall["value"] * 1e3


def test_a_wrong_answer_is_counted(tmp_path, monkeypatch):
    import workloads
    monkeypatch.setattr(workloads, "naive_self_join", lambda records, theta: {})
    run = run_untraced(small("batch_join"), seed=11, seconds=None, workdir=tmp_path)
    assert run["failed"] == run["attempted"] == 3
    assert run["metrics"]["error_share"]["value"] == 1.0
    assert json.loads(report.contract_line(run, traced=False))["correct"] is False


@pytest.mark.parametrize("name", list(SPECS))
def test_traced_run_measures_its_own_layers_and_repeats_its_counts(name, tmp_path):
    spec = small(name)
    spans = tmp_path / "spans.jsonl"
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = run_traced(spec, 11, tmp_path / "a", spans)
    again = run_traced(spec, 11, tmp_path / "b")
    assert first["failed"] == 0 and first["attempted"] > 0
    own = [metric for metric, declared in PER_LAYER.items() if spec.kind in declared.on]
    assert list(first["metrics"]) == own
    assert first["inputs_sha256"] == again["inputs_sha256"]
    for metric in own:
        if PER_LAYER[metric].exact:
            assert first["metrics"][metric]["value"] == \
                again["metrics"][metric]["value"], metric
    if spec.kind.startswith("wire"):
        assert first["metrics"]["gateway.cache_hit_ratio"]["value"] == 0
    # The driver's line carries every name; what was not measured reads 0.
    line = json.loads(report.contract_line(first, traced=True))["metrics"]
    assert list(line) == list(PER_LAYER)
    for metric, declared in PER_LAYER.items():
        assert line[metric]["unit"] == declared.unit
        if metric not in own:
            assert line[metric]["value"] == 0.0
    # The harness's spans are a valid trace by the repo's own checker.
    checked = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_trace.py"), str(spans),
         "--expect-phases", *PHASES[name]],
        capture_output=True, text=True)
    assert checked.returncode == 0, checked.stderr
    # The budget's top-level rows account for the wire median.
    assert ("budget" in first) == spec.kind.startswith("wire")
    if "budget" in first:
        rows = report.budget_rows(first)
        total = rows[0][2]
        parts = sum(ms for indent, _label, ms in rows if indent == 1)
        assert parts == pytest.approx(total)


def test_another_seed_gives_other_inputs():
    from inputs import make_inputs
    spec = small("wire_light")
    assert make_inputs(spec, 1).sha256 == make_inputs(spec, 1).sha256
    assert make_inputs(spec, 1).sha256 != make_inputs(spec, 2).sha256
