"""Tests for the verification MapReduce job."""

from __future__ import annotations

import pytest

from repro.core.verify_job import VerificationJob
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.similarity.functions import SimilarityFunction


@pytest.fixture
def verify_cluster():
    return SimulatedCluster(ClusterSpec(workers=2))


def _run(
    verify_cluster, stripes, theta=0.6, func=SimilarityFunction.JACCARD,
    cross_side=False,
):
    job = VerificationJob(theta, func, cross_side=cross_side)
    return verify_cluster.run_job(job, stripes)


def _stripe(owner, len_owner, *partners):
    """``owner → (len_owner, rid_t, len_t, common, …)`` from ``(rid_t,
    len_t, common)`` triples — the filter job's record (conftest's
    ``expand_stripes`` is the inverse)."""
    return owner, (len_owner,) + tuple(n for triple in partners for n in triple)


class TestAggregation:
    def test_sums_partial_counts(self, verify_cluster):
        # Pair (0, 1): counts 2 + 3 = 5 common of sizes 6 and 6 → J = 5/7.
        stripes = [_stripe(1, 6, (0, 6, 2)), _stripe(1, 6, (0, 6, 3))]
        result = _run(verify_cluster, stripes, theta=0.7)
        assert dict(result.output) == {(0, 1): pytest.approx(5 / 7)}

    def test_below_threshold_dropped(self, verify_cluster):
        stripes = [_stripe(1, 6, (0, 6, 2))]  # J = 2/10 = 0.2
        result = _run(verify_cluster, stripes, theta=0.7)
        assert result.output == []

    def test_multiple_pairs_independent(self, verify_cluster):
        stripes = [
            _stripe(1, 5, (0, 5, 5)),  # identical → 1.0
            _stripe(3, 5, (2, 5, 1)),  # 1/9 → dropped
        ]
        result = _run(verify_cluster, stripes, theta=0.9)
        assert dict(result.output) == {(0, 1): pytest.approx(1.0)}

    def test_partners_of_one_owner_independent(self, verify_cluster):
        """One stripe, three partners: each pair is summed and tested on
        its own, and keyed ``(rid_small, rid_large)`` whichever is the owner."""
        stripes = [
            _stripe(4, 5, (0, 5, 3), (7, 5, 5), (2, 4, 1)),
            _stripe(4, 5, (0, 5, 2), (2, 4, 1)),
        ]
        result = _run(verify_cluster, stripes, theta=0.9)
        assert dict(result.output) == {
            (0, 4): pytest.approx(1.0), (4, 7): pytest.approx(1.0),
        }
        assert result.counters.get("fsjoin.verify", "candidates") == 3

    def test_rs_owner_puts_left_collection_first(self, verify_cluster):
        stripes = [_stripe((0, 9), 5, (2, 5, 5)), _stripe((1, 9), 5, (3, 5, 5))]
        result = _run(verify_cluster, stripes, theta=0.9, cross_side=True)
        assert dict(result.output) == {(9, 2): 1.0, (3, 9): 1.0}

    def test_counters(self, verify_cluster):
        stripes = [_stripe(1, 5, (0, 5, 5)), _stripe(3, 5, (2, 5, 1))]
        result = _run(verify_cluster, stripes, theta=0.9)
        assert result.counters.get("fsjoin.verify", "candidates") == 2
        assert result.counters.get("fsjoin.verify", "results") == 1


class TestCombiner:
    """The combiner merges the stripes of one owner inside a map task."""

    def test_combiner_preserves_totals(self, verify_cluster):
        # six fragments × 1 common with each of rids 0 and 3
        stripes = [_stripe(1, 8, (0, 8, 1), (3, 6, 1)) for _ in range(6)]
        result = _run(verify_cluster, stripes, theta=0.5)
        # total common = 6: sizes 8, 8 → J = 6/10; sizes 8, 6 → J = 6/8.
        assert dict(result.output) == {
            (0, 1): pytest.approx(0.6), (1, 3): pytest.approx(0.75),
        }
        assert result.counters.get("fsjoin.verify", "candidates") == 2

    def test_combiner_shrinks_shuffle(self, verify_cluster):
        stripes = [_stripe(1, 8, (0, 8, 1)) for _ in range(25)]
        stripes += [_stripe(1, 8, (2, 8, 1)) for _ in range(25)]
        result = _run(verify_cluster, stripes, theta=0.5)
        assert result.metrics.shuffle_records < 50
        assert result.counters.get("fsjoin.verify", "candidates") == 2


class TestSimilarityFunctions:
    @pytest.mark.parametrize(
        "func,expected",
        [
            (SimilarityFunction.JACCARD, 4 / 6),
            (SimilarityFunction.DICE, 8 / 10),
            (SimilarityFunction.COSINE, 4 / 5),
        ],
    )
    def test_verification_rules(self, verify_cluster, func, expected):
        """Section V-B's three rules, with c=4, |s|=|t|=5."""
        stripes = [_stripe(1, 5, (0, 5, 4))]
        result = _run(verify_cluster, stripes, theta=0.5, func=func)
        assert dict(result.output) == {(0, 1): pytest.approx(expected)}
