"""Distributed MinHash-LSH join on the MapReduce runtime.

The natural cluster deployment of the approximate join: band buckets are
the shuffle keys (like RIDPairsPPJoin's prefix tokens, but constant-count
per record — ``bands`` signatures each, independent of record length or
threshold), reducers emit candidate pairs per bucket, and a verification
job checks candidates against broadcast record data.

Pipeline:

1. **Banding job** — map: sign the record, emit ``((band, bucket_key),
   rid)``; reduce: all-pairs within a bucket (buckets are tiny for honest
   LSH parameters).
2. **Verify job** — dedup candidate pairs and verify exactly.

Compared to FS-Join this trades exactness (recall < 1) for a radically
smaller, skew-free shuffle; ``benchmarks/bench_ext_approx_distributed.py``
measures that trade.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.approx.lsh import banding_of
from repro.approx.minhash import MinHasher
from repro.data.records import Record, RecordCollection
from repro.mapreduce.job import JobContext, MapReduceJob
from repro.mapreduce.pipeline import PipelineResult
from repro.mapreduce.runtime import SimulatedCluster
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import passes_threshold, similarity_from_overlap
from repro.similarity.verify import intersection_size


class _BandingJob(MapReduceJob):
    """Band-bucket keys → per-bucket candidate pairs."""

    name = "lsh-banding"

    def __init__(self, hasher: MinHasher, bands: int, rows: int) -> None:
        self.hasher = hasher
        self.bands = bands
        self.rows = rows

    def map(self, key: int, value: Record, emit, context: JobContext) -> None:
        if not value.tokens:
            return
        signature = self.hasher.signature(value.tokens)
        for band in range(self.bands):
            start = band * self.rows
            bucket = tuple(signature[start : start + self.rows].tolist())
            emit((band, bucket), value.rid)
        context.increment("lsh.map", "signatures", self.bands)

    def reduce(self, key, values: List[int], emit, context: JobContext) -> None:
        if len(values) < 2:
            return
        rids = sorted(values)
        context.increment("lsh.reduce", "bucket_pairs", len(rids) * (len(rids) - 1) // 2)
        for i, rid_a in enumerate(rids):
            for rid_b in rids[i + 1 :]:
                emit((rid_a, rid_b), 1)


class _VerifyCandidatesJob(MapReduceJob):
    """Dedup candidates and verify against broadcast token data."""

    name = "lsh-verify"

    def __init__(
        self,
        theta: float,
        func: SimilarityFunction,
        tokens_by_rid: Dict[int, frozenset],
    ) -> None:
        self.theta = theta
        self.func = SimilarityFunction(func)
        self.tokens_by_rid = tokens_by_rid

    def combine(self, key, values, context: JobContext):
        return [(key, 1)]

    def reduce(self, key, values, emit, context: JobContext) -> None:
        rid_a, rid_b = key
        tokens_a = self.tokens_by_rid[rid_a]
        tokens_b = self.tokens_by_rid[rid_b]
        common = intersection_size(tokens_a, tokens_b)
        context.increment("lsh.verify", "candidates")
        if passes_threshold(self.func, self.theta, common, len(tokens_a), len(tokens_b)):
            emit(
                key,
                similarity_from_overlap(
                    self.func, common, len(tokens_a), len(tokens_b)
                ),
            )


class DistributedLSHJoin:
    """Approximate distributed self-join: banding job + verification job."""

    algorithm_name = "Distributed-LSH"

    def __init__(
        self,
        theta: float,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        cluster: Optional[SimulatedCluster] = None,
        num_perm: int = 128,
        bands: Optional[int] = None,
        rows: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        bands, rows = banding_of(theta, num_perm, bands, rows)
        self.theta = theta
        self.func = SimilarityFunction(func)
        self.cluster = cluster or SimulatedCluster()
        self.num_perm = num_perm
        self.bands = bands
        self.rows = rows
        self.seed = seed

    def run(self, records: RecordCollection) -> PipelineResult:
        """Approximate results (verified: precision 1.0, recall < 1)."""
        hasher = MinHasher(self.num_perm, seed=self.seed)
        banding = _BandingJob(hasher, self.bands, self.rows)
        banding_result = self.cluster.run_job(
            banding, [(record.rid, record) for record in records]
        )
        tokens_by_rid = {record.rid: record.token_set() for record in records}
        verify = _VerifyCandidatesJob(self.theta, self.func, tokens_by_rid)
        verify_result = self.cluster.run_job(verify, banding_result.output)
        return PipelineResult(
            algorithm=self.algorithm_name,
            pairs=verify_result.output,
            job_results=[banding_result, verify_result],
        )
