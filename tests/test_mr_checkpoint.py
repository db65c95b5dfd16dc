"""Checkpoint/resume tests: digest-validated job outputs on the DFS.

A killed pipeline must restart from its last good materialised output, a
corrupted checkpoint must be rejected by its digest (never silently fed
downstream), and a resumed run's pairs must be bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import pytest

from repro.core import FSJoin, FSJoinConfig
from repro.core.fsjoin import CHECKPOINT_ROOT
from repro.errors import CheckpointError, ConfigError, DFSError
from repro.mapreduce.checkpoint import PipelineCheckpoint
from repro.mapreduce.hdfs import InMemoryDFS, content_digest
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.observability import Tracer
from tests.conftest import random_collection

PAIRS = [(("a", "b"), 0.8), (("a", "c"), 0.9)]


class TestDigests:
    def test_write_records_digest_and_verify_passes(self):
        dfs = InMemoryDFS()
        dfs.write("p", PAIRS)
        assert dfs.digest("p") == content_digest(PAIRS)
        assert dfs.verify("p")

    def test_corrupt_keeps_digest_stale(self):
        """Silent bit rot: read still works, only verify can see it."""
        dfs = InMemoryDFS()
        dfs.write("p", PAIRS)
        dfs.corrupt("p")
        assert dfs.exists("p")
        assert dfs.read("p") != PAIRS
        assert not dfs.verify("p")

    def test_corrupt_empty_file(self):
        dfs = InMemoryDFS()
        dfs.write("p", [])
        dfs.corrupt("p")
        assert not dfs.verify("p")

    def test_digest_of_missing_path(self):
        with pytest.raises(DFSError):
            InMemoryDFS().digest("missing")

    def test_fault_hook_fails_operations(self):
        def hook(op, path):
            if op == "read":
                raise DFSError("injected")

        dfs = InMemoryDFS(fault_hook=hook)
        dfs.write("p", PAIRS)
        with pytest.raises(DFSError, match="injected"):
            dfs.read("p")


class TestPipelineCheckpoint:
    def test_store_valid_load_roundtrip(self):
        ckpt = PipelineCheckpoint(InMemoryDFS())
        ckpt.store("filter", PAIRS)
        assert ckpt.valid("filter")
        assert ckpt.load("filter") == PAIRS

    def test_missing_checkpoint_invalid_and_load_raises(self):
        ckpt = PipelineCheckpoint(InMemoryDFS())
        assert not ckpt.valid("filter")
        with pytest.raises(CheckpointError, match="no checkpoint"):
            ckpt.load("filter")

    def test_corrupted_checkpoint_rejected(self):
        """The digest gate: corruption means re-run, never garbage."""
        dfs = InMemoryDFS()
        ckpt = PipelineCheckpoint(dfs)
        ckpt.store("filter", PAIRS)
        dfs.corrupt(ckpt.path("filter"))
        assert not ckpt.valid("filter")
        with pytest.raises(CheckpointError, match="digest"):
            ckpt.load("filter")

    def test_unreadable_checkpoint_is_invalid(self):
        """A DFS read fault while validating answers False, not a crash."""
        dfs = InMemoryDFS()
        ckpt = PipelineCheckpoint(dfs)
        ckpt.store("filter", PAIRS)

        def hook(op, path):
            raise DFSError("flaky disk")

        dfs.fault_hook = hook
        assert not ckpt.valid("filter")

    def test_overwrite_replaces_the_checkpoint(self):
        dfs = InMemoryDFS()
        ckpt = PipelineCheckpoint(dfs, root="r")
        ckpt.store("a", PAIRS)
        ckpt.store("a", PAIRS[:1])
        assert ckpt.load("a") == PAIRS[:1]
        assert dfs.list_prefix("r/") == ["r/a"]


def run_join(records, dfs=None, resume=False):
    cluster = SimulatedCluster(ClusterSpec(workers=3))
    join = FSJoin(FSJoinConfig(theta=0.7, n_vertical=4), cluster, dfs=dfs)
    return join.run(records, resume=resume)


class TestFSJoinResume:
    def test_resume_requires_dfs(self, small_records):
        join = FSJoin(FSJoinConfig(theta=0.7))
        with pytest.raises(ConfigError, match="requires a DFS"):
            join.run(small_records, resume=True)

    def test_fresh_run_materialises_all_checkpoints(self, small_records):
        dfs = InMemoryDFS()
        run_join(small_records, dfs=dfs)
        ckpt = PipelineCheckpoint(dfs, CHECKPOINT_ROOT)
        jobs = ["filter", "ordering", "verify"]
        assert dfs.list_prefix(CHECKPOINT_ROOT + "/") == list(map(ckpt.path, jobs))
        assert all(ckpt.valid(job) for job in jobs)

    def test_resume_skips_completed_jobs_bit_identically(self):
        records = random_collection(50, seed=21)
        baseline = run_join(records)

        dfs = InMemoryDFS()
        run_join(records, dfs=dfs)
        resumed = run_join(records, dfs=dfs, resume=True)
        assert sorted(resumed.resumed_jobs) == ["filter", "ordering", "verify"]
        assert resumed.result_pairs == baseline.result_pairs

    def test_resume_after_partial_run(self):
        """Only the jobs that actually finished are skipped."""
        records = random_collection(50, seed=22)
        baseline = run_join(records)

        dfs = InMemoryDFS()
        run_join(records, dfs=dfs)
        ckpt = PipelineCheckpoint(dfs, CHECKPOINT_ROOT)
        # Model a driver killed between job 2 and job 3.
        dfs.delete(ckpt.path("verify"))
        resumed = run_join(records, dfs=dfs, resume=True)
        assert sorted(resumed.resumed_jobs) == ["filter", "ordering"]
        assert resumed.result_pairs == baseline.result_pairs

    def test_corrupted_checkpoint_reruns_job(self):
        """Resume over a corrupted checkpoint re-runs it — and still wins."""
        records = random_collection(50, seed=23)
        baseline = run_join(records)

        dfs = InMemoryDFS()
        run_join(records, dfs=dfs)
        ckpt = PipelineCheckpoint(dfs, CHECKPOINT_ROOT)
        dfs.corrupt(ckpt.path("filter"))
        resumed = run_join(records, dfs=dfs, resume=True)
        assert "filter" not in resumed.resumed_jobs
        assert "ordering" in resumed.resumed_jobs
        assert resumed.result_pairs == baseline.result_pairs
        # The re-run rewrote a now-valid checkpoint.
        assert ckpt.valid("filter")

    def test_resume_emits_recovery_spans(self):
        records = random_collection(40, seed=24)
        dfs = InMemoryDFS()
        run_join(records, dfs=dfs)

        tracer = Tracer()
        cluster = SimulatedCluster(ClusterSpec(workers=3), tracer=tracer)
        join = FSJoin(FSJoinConfig(theta=0.7, n_vertical=4), cluster, dfs=dfs)
        result = join.run(records, resume=True)
        recovery = [s for s in tracer.spans() if s.phase == "recovery"]
        assert {s.attrs["action"] for s in recovery} == {"resume-skip"}
        assert sorted(s.attrs["job"] for s in recovery) == sorted(
            result.resumed_jobs
        )

    def test_resume_false_reruns_everything(self):
        records = random_collection(40, seed=25)
        dfs = InMemoryDFS()
        run_join(records, dfs=dfs)
        rerun = run_join(records, dfs=dfs, resume=False)
        assert rerun.resumed_jobs == []
        assert len(rerun.job_results) == 3
