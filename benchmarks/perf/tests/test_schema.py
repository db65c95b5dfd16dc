"""BENCHMARK.json against the driver's contract and the harness's own tables."""

import json
import re
from pathlib import Path

from spec import END_TO_END, PER_LAYER, ROLE_SOURCES, ROLES, SPECS

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_top_level_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workloads_are_the_specs():
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPECS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == SPECS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_are_the_roles():
    listed = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert list(listed) == list(ROLES)
    for name, declared in ROLES.items():
        assert listed[name] == {"name": name, "unit": declared.unit,
                                "better": declared.better,
                                "bound": declared.bound}
        assert 0 < declared.bound <= 0.25
    assert listed["setup_s"]["unit"] == "s"
    assert listed["setup_s"]["better"] == "lower"
    assert listed["setup_s"]["bound"] == max(m.bound for m in ROLES.values())


def test_every_kind_fills_every_role_from_one_of_its_own_metrics():
    assert {spec.kind for spec in SPECS.values()} == set(ROLE_SOURCES)
    for kind, sources in ROLE_SOURCES.items():
        assert set(sources) == set(ROLES)
        for role, name in sources.items():
            declared = END_TO_END[name]
            assert kind in declared.on and declared.role == role
            # One bound per metric: the role's is the metric's.
            assert (declared.better, declared.bound) == (
                ROLES[role].better, ROLES[role].bound)
    # Every metric that names a role fills it somewhere.
    filled = {name for sources in ROLE_SOURCES.values() for name in sources.values()}
    assert filled == {name for name, m in END_TO_END.items() if m.role}


def test_per_layer_are_the_catalogue():
    listed = {m["name"]: m for m in BENCHMARK["per_layer"]}
    assert 1 <= len(listed) <= 128
    assert list(listed) == list(PER_LAYER)
    kinds = {spec.kind for spec in SPECS.values()}
    for name, declared in PER_LAYER.items():
        assert listed[name] == {"name": name, "unit": declared.unit,
                                "better": declared.better}
        assert declared.moves, f"{name} names no end-to-end metric to move"
        assert declared.on and set(declared.on) <= kinds


def test_names_units_and_directions_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_issue_names_are_all_present():
    for name in ("setup_s", "peak_rss_mb", "error_share", "join_wall_s",
                 "sim_cluster_s", "search_p50_ms", "search_p95_ms",
                 "search_p99_ms", "search_qps_c2", "batch_qps",
                 "server_cpu_ms_per_search", "append_records_per_s",
                 "append_p95_ms"):
        assert name in END_TO_END
    layers = {name.split(".", 1)[0] for name in PER_LAYER}
    assert layers == {"data", "core", "mapreduce", "service", "cluster",
                      "gateway", "net", "ingest", "observability"}
    for layer in layers:
        assert (ROOT / "src" / "repro" / layer).is_dir()


def test_readme_glossary_covers_every_metric():
    readme = (PERF / "README.md").read_text()
    for name in list(END_TO_END) + list(ROLES) + list(PER_LAYER):
        assert f"`{name}`" in readme, f"README.md has no entry for {name}"
