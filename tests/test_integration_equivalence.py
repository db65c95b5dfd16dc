"""Cross-algorithm integration tests.

Every distributed algorithm must return *exactly* the same result set and
scores on the same data — the paper's comparisons are about cost, never
about answers.  The cost claims (Table I, Fig 6) are checked by the
``table1`` and ``fig6`` entries of ``benchmarks/paper.py``.
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
