"""Cross-algorithm integration tests.

Every distributed algorithm must return *exactly* the same result set and
scores on the same data — the paper's comparisons are about cost, never
about answers.  Also checks the measured-claims matrix of Table I.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    MassJoin,
    RIDPairsPPJoin,
    VSmartJoin,
    naive_self_join,
    ppjoin_self_join,
)
from repro.core import FSJoin, FSJoinConfig
from repro.data import make_corpus
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from tests.conftest import random_collection


def _all_algorithms(theta, cluster):
    return [
        FSJoin(FSJoinConfig(theta=theta, n_vertical=6), cluster),
        FSJoin(FSJoinConfig(theta=theta, n_vertical=6, n_horizontal=4), cluster),
        RIDPairsPPJoin(theta, cluster=cluster),
        VSmartJoin(theta, cluster=cluster),
        MassJoin(theta, cluster=cluster),
        MassJoin(theta, cluster=cluster, variant="merge+light"),
    ]


class TestResultEquivalence:
    @pytest.mark.parametrize("theta", [0.6, 0.8, 0.9])
    def test_all_algorithms_agree(self, theta, cluster):
        records = random_collection(60, seed=101)
        oracle = naive_self_join(records, theta)
        expected = frozenset(oracle)
        for algorithm in _all_algorithms(theta, cluster):
            result = algorithm.run(records)
            assert result.result_set() == expected, result.algorithm
            for pair, score in result.result_pairs.items():
                assert score == pytest.approx(oracle[pair]), result.algorithm

    def test_on_synthetic_corpus(self, cluster):
        records = make_corpus("wiki", 120, seed=5)
        theta = 0.8
        expected = frozenset(ppjoin_self_join(records, theta))
        for algorithm in _all_algorithms(theta, cluster):
            assert algorithm.run(records).result_set() == expected, (
                algorithm.__class__.__name__
            )


class TestTableOneClaims:
    """Table I, measured: duplication and load balancing per algorithm."""

    @pytest.fixture(scope="class")
    def runs(self):
        cluster = SimulatedCluster(ClusterSpec(workers=4))
        records = make_corpus("wiki", 150, seed=9)
        theta = 0.8
        return {
            "fsjoin": FSJoin(
                FSJoinConfig(theta=theta, n_vertical=12), cluster
            ).run(records),
            "ridpairs": RIDPairsPPJoin(theta, cluster=cluster).run(records),
            "vsmart": VSmartJoin(theta, cluster=cluster).run(records),
            "massjoin": MassJoin(theta, cluster=cluster).run(records),
        }

    def test_fsjoin_is_duplicate_free(self, runs):
        """FS-Join's kernel emits each record's payload exactly once."""
        fsjoin_kernel = runs["fsjoin"].job_results[1].metrics
        assert fsjoin_kernel.duplication_byte_factor() < 1.6  # segInfo overhead only

    def test_baselines_duplicate(self, runs):
        for name in ("ridpairs", "massjoin"):
            kernel = runs[name].job_results[1].metrics
            assert kernel.duplication_record_factor() > 1.5, name

    def test_vsmart_emits_every_token(self, runs):
        kernel = runs["vsmart"].job_results[0].metrics
        assert kernel.map_output_records == sum(
            t.input_records for t in kernel.map_tasks
        ) or kernel.duplication_record_factor() > 5

    def test_fsjoin_balances_reduce_load(self, runs):
        """Even-TF fragments give FS-Join lower reduce skew than the
        token-keyed kernels on a Zipf corpus."""
        fsjoin_cv = runs["fsjoin"].job_results[1].metrics.reduce_load_cv()
        vsmart_cv = runs["vsmart"].job_results[0].metrics.reduce_load_cv()
        assert fsjoin_cv < vsmart_cv

    def test_fsjoin_smallest_shuffle(self, runs):
        fsjoin = runs["fsjoin"].total_shuffle_bytes()
        assert fsjoin < runs["massjoin"].total_shuffle_bytes()
        assert fsjoin < runs["vsmart"].total_shuffle_bytes()


class TestSimulatedTimeShape:
    """Coarse Fig. 6/7 shape under the paper-scale calibration: FS-Join
    beats the baselines (see repro.analysis.calibration for why raw
    miniature timings are startup-dominated)."""

    @pytest.fixture(scope="class")
    def email(self):
        """The corpus and the two baseline runs both tests compare FS-Join
        against, built once.  40 records is the smallest email corpus at
        which every assertion below holds by more than 10 %: FS-Join's
        simulated time is 19.4 s against RIDPairs' 22.1 (x1.14) and
        MassJoin's 47.0 (x2.4), repeatable to 0.1 s; its shuffle is
        126 KB against 1.26 MB (x10) and 8.7 MB (x69).  At 30 records
        the RIDPairs time margin is x1.11, at 20 x1.08; at the former 200
        it is x1.59, for a ``MassJoin.run`` of 33 s instead of 5."""
        cluster = SimulatedCluster(ClusterSpec(workers=10))
        records = make_corpus("email", 40, seed=13)
        return {
            "cluster": cluster,
            "records": records,
            "ridpairs": RIDPairsPPJoin(0.8, cluster=cluster).run(records),
            "massjoin": MassJoin(0.8, cluster=cluster).run(records),
        }

    def test_fsjoin_fastest_on_email_corpus(self, email):
        from repro.analysis.calibration import PAPER_SCALE

        cluster, records = email["cluster"], email["records"]
        ridpairs, massjoin = email["ridpairs"], email["massjoin"]
        theta = 0.8
        spec = cluster.spec
        fsjoin = FSJoin(
            FSJoinConfig(theta=theta, n_vertical=30, n_horizontal=10), cluster
        ).run(records)
        fsjoin_time = fsjoin.simulated_time(spec, PAPER_SCALE).total_s
        assert fsjoin_time < ridpairs.simulated_time(spec, PAPER_SCALE).total_s
        assert fsjoin_time < massjoin.simulated_time(spec, PAPER_SCALE).total_s

    def test_fsjoin_less_shuffle_than_all_on_email(self, email):
        cluster, records = email["cluster"], email["records"]
        ridpairs, massjoin = email["ridpairs"], email["massjoin"]
        fsjoin = FSJoin(FSJoinConfig(theta=0.8, n_vertical=30), cluster).run(records)
        assert fsjoin.total_shuffle_bytes() < ridpairs.total_shuffle_bytes()
        assert fsjoin.total_shuffle_bytes() < massjoin.total_shuffle_bytes()
