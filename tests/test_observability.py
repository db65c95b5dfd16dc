"""Tests for the observability layer: tracer, exports, histogram, and the
end-to-end invariants (span coverage, bit-identical results traced vs
untraced on every executor backend)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.report import format_phase_breakdown, phase_breakdown
from repro.baselines.naive import naive_self_join
from repro.core import FSJoin, FSJoinConfig
from repro.mapreduce.executors import create_executor
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.observability import (
    NOOP_TRACER,
    LatencyHistogram,
    NoopTracer,
    Span,
    Tracer,
    chrome_path_for,
    read_jsonl,
    to_chrome_trace,
    validate_jsonl_record,
    write_chrome_trace,
    write_jsonl,
)
from repro.cluster import build_cluster
from repro.service import SegmentIndex
from tests.conftest import random_collection
from tests.test_mr_fault_tolerance import LINES, FailFirstAttempts, WordCount

EXECUTORS = ["serial", "thread", "process"]


def _batch_with_spans(task):
    """Worker task (module-level: picklable): serve one batch through a
    one-shard router, traced or not, and return its hits with each span's
    (name, queries attribute)."""
    index, queries, traced = task
    tracer = Tracer() if traced else NOOP_TRACER
    hits = build_cluster(index, n_shards=1, tracer=tracer).search_batch(
        queries, 0.5
    )
    return hits, [(s.name, s.attrs.get("queries")) for s in tracer.spans()]


def span_shape(spans):
    """The timing-independent skeleton of a trace: names, phases, tree
    links and statuses — everything that must be deterministic."""
    return [
        (s.name, s.phase, s.span_id, s.parent_id, s.attrs.get("status"))
        for s in spans
    ]


class TestTracer:
    def test_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer", phase="a") as outer:
            with tracer.span("inner", phase="b") as inner:
                pass
            with tracer.span("sibling", phase="b") as sibling:
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["outer", "inner", "sibling"]
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id
        assert outer.duration >= inner.duration + sibling.duration - 1e-6

    def test_spans_appended_on_open(self):
        """Parents must precede children in the list (adopt relies on it)."""
        tracer = Tracer()
        with tracer.span("outer"):
            assert [s.name for s in tracer.spans()] == ["outer"]
            with tracer.span("inner"):
                assert [s.name for s in tracer.spans()] == ["outer", "inner"]

    def test_live_attrs(self):
        tracer = Tracer()
        with tracer.span("work", phase="x", preset=1) as span:
            span.attrs["late"] = 2
        recorded = tracer.spans()[0]
        assert recorded.attrs == {"preset": 1, "late": 2}

    def test_add_records_premeasured_interval(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.add("stage", "service", 10.0, 0.5, calls=3)
        stage = tracer.spans()[1]
        assert stage.parent_id == outer.span_id
        assert stage.start == 10.0 and stage.duration == 0.5
        assert stage.attrs["calls"] == 3

    def test_mark_and_spans_since(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        mark = tracer.mark()
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.spans_since(mark)] == ["after"]



class TestAdopt:
    def make_worker_batch(self):
        worker = Tracer()
        with worker.span("task", phase="map", task_id=7):
            with worker.span("child", phase="map"):
                pass
        return worker.spans()

    def test_adopt_remaps_ids_and_preserves_links(self):
        batch = self.make_worker_batch()
        driver = Tracer()
        with driver.span("wave", phase="map-wave") as wave:
            driver.adopt(batch)
        spans = driver.spans()
        assert [s.name for s in spans] == ["wave", "task", "child"]
        task, child = spans[1], spans[2]
        assert task.parent_id == wave.span_id
        assert child.parent_id == task.span_id
        assert len({s.span_id for s in spans}) == 3

    def test_adopt_outside_open_span_makes_roots(self):
        batch = self.make_worker_batch()
        driver = Tracer()
        driver.adopt(batch)
        assert driver.spans()[0].parent_id is None

    def test_adopt_explicit_parent(self):
        batch = self.make_worker_batch()
        driver = Tracer()
        with driver.span("root") as root:
            pass
        driver.adopt(batch, parent_id=root.span_id)
        assert driver.spans()[1].parent_id == root.span_id

    def test_adopt_copies_spans(self):
        """Adopting must not mutate the worker's batch (it may be reused)."""
        batch = self.make_worker_batch()
        ids_before = [s.span_id for s in batch]
        driver = Tracer()
        with driver.span("wave"):
            driver.adopt(batch)
        assert [s.span_id for s in batch] == ids_before


class TestNoopTracer:
    def test_disabled_and_records_nothing(self):
        assert NOOP_TRACER.enabled is False
        with NOOP_TRACER.span("x", phase="y", a=1) as span:
            span.attrs["b"] = 2
            span.attrs.update(c=3)
        NOOP_TRACER.add("s", "p", 0.0, 1.0)
        NOOP_TRACER.adopt([Span("n", "p", 0.0, span_id=1)])
        assert len(NOOP_TRACER.spans()) == 0
        assert dict(span.attrs) == {}

    def test_enabled_tracer_flag(self):
        assert Tracer().enabled is True
        assert NoopTracer().enabled is False

    def test_reentrant(self):
        with NOOP_TRACER.span("outer"):
            with NOOP_TRACER.span("inner") as inner:
                assert inner.name == "noop"


class TestExport:
    def build_trace(self):
        tracer = Tracer()
        with tracer.span("pipeline", phase="pipeline", theta=0.8):
            with tracer.span("job", phase="job"):
                with tracer.span("map:0", phase="map", task_id=0):
                    pass
        return tracer.spans()

    def test_jsonl_roundtrip(self, tmp_path):
        spans = self.build_trace()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(spans, path) == 3
        loaded = read_jsonl(path)
        assert [s.as_dict() for s in loaded] == [s.as_dict() for s in spans]

    def test_jsonl_records_validate(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(self.build_trace(), path)
        for line in path.read_text().splitlines():
            assert validate_jsonl_record(json.loads(line)) is None

    def test_validate_rejects_bad_records(self):
        good = self.build_trace()[0].as_dict()
        assert validate_jsonl_record("nope") is not None
        assert validate_jsonl_record({}) is not None
        assert validate_jsonl_record({**good, "span_id": 0}) is not None
        assert validate_jsonl_record({**good, "span_id": True}) is not None
        assert validate_jsonl_record({**good, "duration": -1.0}) is not None
        missing = dict(good)
        del missing["phase"]
        assert validate_jsonl_record(missing) is not None

    def test_chrome_trace_structure(self):
        document = to_chrome_trace(self.build_trace())
        events = document["traceEvents"]
        assert len(events) == 3
        assert {e["ph"] for e in events} == {"X"}
        assert min(e["ts"] for e in events) == 0.0  # rebased to trace start
        pipeline = next(e for e in events if e["name"] == "pipeline")
        assert pipeline["cat"] == "pipeline"
        assert pipeline["args"]["theta"] == 0.8
        # Children share the root's track; the task offsets within it.
        job = next(e for e in events if e["name"] == "job")
        task = next(e for e in events if e["name"] == "map:0")
        assert job["tid"] == pipeline["tid"]
        assert task["tid"] == pipeline["tid"] + 1  # task_id 0 → offset 1

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        assert write_chrome_trace(self.build_trace(), path) == 3
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"

    def test_chrome_path_for(self):
        assert chrome_path_for("runs/a.jsonl").name == "a.chrome.json"
        assert chrome_path_for("runs/a.trace").name == "a.trace.chrome.json"


class TestLatencyHistogram:
    def test_empty_snapshot(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p99_ms"] == 0.0

    def test_percentiles_bound_observations(self):
        hist = LatencyHistogram()
        for ms in [1, 1, 1, 1, 1, 1, 1, 1, 1, 100]:
            hist.record(ms / 1e3)
        p50, p99 = hist.percentile(0.50), hist.percentile(0.99)
        # Log2 buckets: estimates are upper bounds within 2× of the truth.
        assert 0.001 <= p50 <= 0.0021
        assert 0.1 <= p99 <= 0.2
        assert hist.percentile(1.0) == pytest.approx(hist.max)

    def test_snapshot_fields(self):
        hist = LatencyHistogram()
        hist.record(0.002)
        hist.record(0.004)
        snapshot = hist.snapshot()
        assert snapshot["count"] == 2
        assert snapshot["mean_ms"] == pytest.approx(3.0, abs=0.01)
        assert snapshot["min_ms"] == pytest.approx(2.0, abs=0.01)
        assert snapshot["max_ms"] == pytest.approx(4.0, abs=0.01)
        assert snapshot["p50_ms"] <= snapshot["p95_ms"] <= snapshot["p99_ms"]

    def test_threaded_counts(self):
        import threading

        hist = LatencyHistogram()
        threads = [
            threading.Thread(
                target=lambda: [hist.record(0.001) for _ in range(500)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 2000


class TestTracedJob:
    def test_span_coverage_one_job(self):
        tracer = Tracer()
        SimulatedCluster(ClusterSpec(workers=2), tracer=tracer).run_job(
            WordCount(), LINES, num_map_tasks=3, num_reduce_tasks=2
        )
        spans = tracer.spans()
        phases = {s.phase for s in spans}
        assert {"job", "map-wave", "map", "shuffle", "reduce-wave", "reduce"} <= phases
        job = spans[0]
        assert job.parent_id is None and job.phase == "job"
        assert sum(1 for s in spans if s.phase == "map") == 3
        assert sum(1 for s in spans if s.phase == "reduce") == 2
        # Every task span carries its attempt number and volume attrs.
        for s in spans:
            if s.phase in ("map", "reduce"):
                assert s.attrs["attempt"] == 1
                assert s.attrs["status"] == "ok"
                assert "output_records" in s.attrs

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_trace_shape_identical_across_executors(self, executor):
        serial_tracer = Tracer()
        SimulatedCluster(ClusterSpec(workers=2), tracer=serial_tracer).run_job(
            WordCount(), LINES, num_map_tasks=3, num_reduce_tasks=2
        )
        other = Tracer()
        SimulatedCluster(
            ClusterSpec(workers=2), executor=executor, tracer=other
        ).run_job(WordCount(), LINES, num_map_tasks=3, num_reduce_tasks=2)
        assert span_shape(other.spans()) == span_shape(serial_tracer.spans())

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_results_bit_identical_traced_vs_untraced(self, executor):
        untraced = SimulatedCluster(
            ClusterSpec(workers=2), executor=executor
        ).run_job(WordCount(), LINES)
        traced = SimulatedCluster(
            ClusterSpec(workers=2), executor=executor, tracer=Tracer()
        ).run_job(WordCount(), LINES)
        assert traced.output == untraced.output
        assert traced.counters.as_dict() == untraced.counters.as_dict()


class TestTracedPipeline:
    @pytest.fixture(scope="class")
    def records(self):
        return random_collection(30, seed=91)

    def run_join(self, records, executor="serial", tracer=None):
        cluster = SimulatedCluster(
            ClusterSpec(workers=2), executor=executor, tracer=tracer
        )
        return FSJoin(FSJoinConfig(theta=0.7, n_vertical=3), cluster).run(records)

    def test_driver_phase_coverage(self, records):
        tracer = Tracer()
        result = self.run_join(records, tracer=tracer)
        spans = tracer.spans()
        names = {s.name for s in spans}
        assert {"order-build", "filter-job", "verify-job", "aggregation"} <= names
        assert spans[0].phase == "pipeline" and spans[0].parent_id is None
        # Every job span nests under a driver-phase span under the pipeline.
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.phase == "job":
                assert by_id[s.parent_id].phase == "driver"
        assert result.trace == spans

    def test_trace_not_kept_when_disabled(self, records):
        assert self.run_join(records).trace is None

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_fsjoin_bit_identical_traced_vs_untraced(self, records, executor):
        oracle = frozenset(naive_self_join(records, 0.7))
        untraced = self.run_join(records, executor=executor)
        traced = self.run_join(records, executor=executor, tracer=Tracer())
        assert traced.result_set() == untraced.result_set() == oracle
        assert traced.counters().as_dict() == untraced.counters().as_dict()

    def test_trace_shape_identical_across_executors(self, records):
        shapes = []
        for executor in EXECUTORS:
            tracer = Tracer()
            self.run_join(records, executor=executor, tracer=tracer)
            shapes.append(span_shape(tracer.spans()))
        assert shapes[0] == shapes[1] == shapes[2]

    def test_retry_spans_in_pipeline_trace(self, records):
        tracer = Tracer()
        cluster = SimulatedCluster(
            ClusterSpec(workers=2),
            failure_injector=FailFirstAttempts(("map",)),
            tracer=tracer,
        )
        result = FSJoin(FSJoinConfig(theta=0.7, n_vertical=3), cluster).run(records)
        retried = [
            s for s in tracer.spans() if s.attrs.get("status") == "retried"
        ]
        assert len(retried) == result.counters().get("mapreduce", "map_task_retries")
        assert len(retried) > 0


class TestServiceTracing:
    @pytest.fixture(scope="class")
    def corpus(self):
        return random_collection(40, seed=92)

    def test_probe_span_coverage(self, corpus):
        tracer = Tracer()
        router = build_cluster(
            SegmentIndex.build(corpus, n_vertical=4), n_shards=1,
            tracer=tracer,
        )
        router.search(list(corpus[0].tokens), 0.5)
        spans = tracer.spans()
        names = [s.name for s in spans]
        assert names == ["cluster-batch", "route", "shard-probe",
                         "prefix-filter", "verification", "merge"]
        for retired in ("positional-bound", "fragment-filters"):
            assert retired not in names
        request, leg = spans[0], spans[2]
        assert all(span.parent_id == request.span_id
                   for span in spans if span.phase == "cluster"
                   and span is not request)
        assert all(span.parent_id == leg.span_id
                   for span in spans if span.phase == "service")

    @pytest.mark.parametrize("executor", [None, "thread", "process"])
    def test_batch_bit_identical_traced_vs_untraced(self, corpus, executor):
        """Tracing never changes a batch's answers, whether the untraced and
        traced batches run in the caller or on workers of a backend (a
        process worker serving an unpickled copy of the index)."""
        queries = [list(r.tokens) for r in corpus][:12]
        index = SegmentIndex.build(corpus, n_vertical=4)
        tasks = [(index, queries, False), (index, queries, True)]
        if executor is None:
            runs = [_batch_with_spans(task) for task in tasks]
        else:
            runs = create_executor(executor).run_tasks(
                _batch_with_spans, tasks
            )
        (plain, untraced_spans), (traced, spans) = runs
        assert traced == plain
        assert untraced_spans == []
        assert spans[0] == ("cluster-batch", 12)

    def test_latency_info(self, corpus):
        router = build_cluster(SegmentIndex.build(corpus, n_vertical=4),
                               n_shards=1)
        for record in corpus[:5]:
            router.search(list(record.tokens), 0.5)
        info = router.latency.snapshot()
        assert info["count"] == 5
        assert info["p50_ms"] <= info["p95_ms"] <= info["p99_ms"]
        assert info["max_ms"] > 0


class TestPhaseBreakdown:
    def test_rows_from_real_trace(self):
        tracer = Tracer()
        SimulatedCluster(ClusterSpec(workers=2), tracer=tracer).run_job(
            WordCount(), LINES
        )
        rows = phase_breakdown(tracer.spans())
        by_phase = {row["phase"]: row for row in rows}
        assert "job" in by_phase and "map" in by_phase and "reduce" in by_phase
        assert rows[0]["phase"] == "job"  # execution order
        for row in rows:
            assert row["total_s"] >= 0
            assert row["share"].endswith("%")

    def test_retried_attempts_get_own_row(self):
        tracer = Tracer()
        SimulatedCluster(
            ClusterSpec(workers=2),
            failure_injector=FailFirstAttempts(("map",)),
            tracer=tracer,
        ).run_job(WordCount(), LINES, num_map_tasks=2)
        labels = {row["phase"] for row in phase_breakdown(tracer.spans())}
        assert "map (retried)" in labels and "map" in labels

    def test_nested_spans_of_one_phase_count_once(self):
        """A router search nests ``cluster`` spans (route, shard-probe,
        merge) inside its ``cluster`` request span: the phase's time is
        the request's, never the request plus its own children."""
        corpus = random_collection(40, seed=92)
        tracer = Tracer()
        router = build_cluster(SegmentIndex.build(corpus, n_vertical=4),
                               n_shards=2, tracer=tracer)
        router.search_batch([list(r.tokens) for r in corpus], 0.5)
        rows = phase_breakdown(tracer.spans())
        assert {row["phase"] for row in rows} == {"cluster", "service"}
        for row in rows:
            assert float(row["share"].rstrip("%")) <= 100.0
        cluster = next(row for row in rows if row["phase"] == "cluster")
        assert cluster["share"] == "100.0%"

    def test_format_renders_table(self):
        tracer = Tracer()
        with tracer.span("run", phase="pipeline"):
            pass
        text = format_phase_breakdown(tracer.spans(), title="phases")
        assert text.splitlines()[0] == "phases"
        assert "pipeline" in text


class TestCheckTraceTool:
    def write_and_check(self, tmp_path, spans, **kwargs):
        import tools.check_trace as check_trace

        path = tmp_path / "trace.jsonl"
        write_jsonl(spans, path)
        return check_trace.check_trace(path, **kwargs)

    def test_valid_trace_passes(self, tmp_path):
        tracer = Tracer()
        SimulatedCluster(ClusterSpec(workers=2), tracer=tracer).run_job(
            WordCount(), LINES
        )
        errors = self.write_and_check(
            tmp_path,
            tracer.spans(),
            expect_phases=("job", "map-wave", "map", "shuffle", "reduce"),
        )
        assert errors == []

    def test_expected_retries_enforced(self, tmp_path):
        tracer = Tracer()
        SimulatedCluster(
            ClusterSpec(workers=2),
            failure_injector=FailFirstAttempts(("map",)),
            tracer=tracer,
        ).run_job(WordCount(), LINES, num_map_tasks=2)
        assert self.write_and_check(tmp_path, tracer.spans(), expect_retries=2) == []
        errors = self.write_and_check(tmp_path, tracer.spans(), expect_retries=99)
        assert errors and "retried" in errors[0]

    def test_missing_phase_reported(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x", phase="job"):
            pass
        errors = self.write_and_check(
            tmp_path, tracer.spans(), expect_phases=("service",)
        )
        assert any("service" in e for e in errors)

    def test_orphan_parent_reported(self, tmp_path):
        spans = [Span("orphan", "job", 0.0, 0.1, span_id=5, parent_id=99)]
        errors = self.write_and_check(tmp_path, spans)
        assert any("parent_id" in e for e in errors)

    def test_empty_trace_reported(self, tmp_path):
        assert "trace is empty" in self.write_and_check(tmp_path, [])
