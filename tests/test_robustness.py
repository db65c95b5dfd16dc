"""Robustness tests: adversarial and degenerate corpora.

Every distributed algorithm must stay exact on inputs engineered to break
specific mechanisms: identical records (maximal candidate density), one
shared hot token (worst-case skew), single-token records (prefix length
edge), disjoint records (empty result), and a heavy mixture of sizes.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    MassJoin,
    RIDPairsPPJoin,
    VSmartJoin,
    naive_self_join,
)
from repro.core import FSJoin, FSJoinConfig
from tests.conftest import records_of

THETA = 0.8


def _corpora():
    identical = records_of([["a", "b", "c", "d"]] * 12)
    one_hot_token = records_of(
        [["hot", f"u{i}", f"v{i}", f"w{i}"] for i in range(20)]
    )
    singletons = records_of(
        [[f"t{i % 4}"] for i in range(12)]
    )
    disjoint = records_of(
        [[f"x{i}a", f"x{i}b", f"x{i}c"] for i in range(15)]
    )
    mixed_sizes = records_of(
        [["s"]] + [[f"m{j}" for j in range(10)]] * 3 + [[f"l{j}" for j in range(200)]] * 2
    )
    return {
        "identical": identical,
        "one_hot_token": one_hot_token,
        "singletons": singletons,
        "disjoint": disjoint,
        "mixed_sizes": mixed_sizes,
    }


CORPORA = _corpora()


@pytest.mark.parametrize("name", list(CORPORA))
class TestAdversarialCorpora:
    def test_fsjoin(self, name, cluster):
        records = CORPORA[name]
        oracle = frozenset(naive_self_join(records, THETA))
        config = FSJoinConfig(theta=THETA, n_vertical=4, n_horizontal=3)
        assert FSJoin(config, cluster).run(records).result_set() == oracle

    def test_ridpairs(self, name, cluster):
        records = CORPORA[name]
        oracle = frozenset(naive_self_join(records, THETA))
        assert RIDPairsPPJoin(THETA, cluster=cluster).run(records).result_set() == oracle

    def test_vsmart(self, name, cluster):
        records = CORPORA[name]
        oracle = frozenset(naive_self_join(records, THETA))
        assert VSmartJoin(THETA, cluster=cluster).run(records).result_set() == oracle

    def test_massjoin(self, name, cluster):
        records = CORPORA[name]
        oracle = frozenset(naive_self_join(records, THETA))
        assert MassJoin(THETA, cluster=cluster).run(records).result_set() == oracle


class TestExpectedShapes:
    def test_identical_full_clique(self, cluster):
        records = CORPORA["identical"]
        result = FSJoin(FSJoinConfig(theta=1.0, n_vertical=3), cluster).run(records)
        n = len(records)
        assert len(result.pairs) == n * (n - 1) // 2

    def test_disjoint_empty(self, cluster):
        result = FSJoin(FSJoinConfig(theta=0.1, n_vertical=3), cluster).run(
            CORPORA["disjoint"]
        )
        assert result.pairs == []

    def test_singletons_group_by_token(self, cluster):
        result = FSJoin(FSJoinConfig(theta=1.0, n_vertical=2), cluster).run(
            CORPORA["singletons"]
        )
        # 12 singleton records over 4 token values → 4 cliques of 3: 4·C(3,2).
        assert len(result.pairs) == 4 * 3

    def test_hot_token_alone_insufficient(self, cluster):
        """Sharing only the hot token (1 of 4) never reaches θ=0.8."""
        result = FSJoin(FSJoinConfig(theta=0.8, n_vertical=4), cluster).run(
            CORPORA["one_hot_token"]
        )
        assert result.pairs == []


class TestDFSWiring:
    def test_intermediates_written(self, medium_records, cluster):
        from repro.mapreduce.hdfs import InMemoryDFS

        dfs = InMemoryDFS()
        config = FSJoinConfig(theta=0.7, n_vertical=4)
        with_dfs = FSJoin(config, cluster, dfs=dfs).run(medium_records)
        assert dfs.exists("fsjoin/partial-counts")
        assert dfs.exists("fsjoin/results")
        assert dfs.size_bytes("fsjoin/partial-counts") > 0
        # Observational only: identical results with and without the DFS.
        plain = FSJoin(config, cluster).run(medium_records)
        assert with_dfs.result_set() == plain.result_set()
        # The persisted results match the returned ones.
        assert dict(dfs.read("fsjoin/results")) == with_dfs.result_pairs
