"""The stripe layout end to end: owner canonicity and exactness.

``core/joins.py`` keys every partial count by the record that *owns* its
pair — the later of the two under ``(|s|, side, rid)`` — so the
verification job can sum a pair inside one reduce group.  That only works
if a pair has the same owner in every fragment and horizontal partition
it is counted in; and the whole point is that the answers do not move.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from repro.baselines.naive import naive_rs_join, naive_self_join
from repro.core import FSJoin, FSJoinConfig
from repro.core.config import FilterConfig, JoinMethod
from repro.data.records import Record, RecordCollection
from repro.similarity.functions import SimilarityFunction
from tests.conftest import expand_stripes, random_collection

CORPUS = random_collection(80, vocab=60, max_len=25, seed=24)
LEFT = RecordCollection(list(CORPUS)[:40])
#: ids 0..39 again: record ids repeat across the two collections.
RIGHT = RecordCollection(
    [Record.make(rid, record.tokens) for rid, record in enumerate(list(CORPUS)[40:])]
)

MATRIX = list(
    product(
        list(SimilarityFunction),
        (0.5, 0.7, 0.8, 0.95),
        list(JoinMethod),
        (1, 4, 10),
        (FilterConfig(), FilterConfig.only(), FilterConfig(strl=False)),
    )
)


def _config(func, theta, method, n_horizontal, filters):
    return FSJoinConfig(
        theta=theta, func=func, n_vertical=6, join_method=method,
        n_horizontal=n_horizontal, filters=filters,
    )


class TestOwnerCanonicity:
    """Every pair is emitted under one owner in every ``(h, v)`` it appears in."""

    @staticmethod
    def _owners(filter_output, cross_side=False):
        owners = {}
        fragments_seen = 0
        for owner, pair, _ in expand_stripes(filter_output, cross_side):
            owners.setdefault(pair, set()).add(owner)
            fragments_seen += 1
        # Not vacuous: pairs do meet in several fragments.
        assert fragments_seen > 2 * len(owners) > 0
        return owners

    @pytest.mark.parametrize("n_horizontal", [1, 4, 10])
    def test_self_join(self, n_horizontal, cluster):
        config = FSJoinConfig(theta=0.6, n_vertical=6, n_horizontal=n_horizontal)
        result = FSJoin(config, cluster).run(CORPUS)
        sizes = {record.rid: record.size for record in CORPUS}
        for pair, owners in self._owners(result.job_results[1].output).items():
            assert owners == {max(pair, key=lambda rid: (sizes[rid], rid))}, pair

    @pytest.mark.parametrize("n_horizontal", [1, 4, 10])
    def test_rs_join(self, n_horizontal, cluster):
        config = FSJoinConfig(theta=0.6, n_vertical=6, n_horizontal=n_horizontal)
        result = FSJoin(config, cluster).run(LEFT, right=RIGHT)
        for (rid_l, rid_r), owners in self._owners(
            result.job_results[1].output, cross_side=True
        ).items():
            left = (LEFT.get(rid_l).size, 0, rid_l)
            right = (RIGHT.get(rid_r).size, 1, rid_r)
            assert owners == {max(left, right)[1:]}, (rid_l, rid_r)


class TestExactnessMatrix:
    """A seeded sample of function × θ × join method × ``n_horizontal`` ×
    filters: pairs *and* scores equal the naive all-pairs scan."""

    SAMPLE = random.Random(24).sample(MATRIX, 36)

    def test_sample_spans_every_axis(self):
        for axis in range(5):
            assert {combo[axis] for combo in self.SAMPLE} == {
                combo[axis] for combo in MATRIX
            }

    @pytest.mark.parametrize("combo", SAMPLE, ids=lambda c: "-".join(map(str, c[:4])))
    def test_self_join_and_rs_equal_naive(self, combo, cluster):
        func, theta = combo[0], combo[1]
        config = _config(*combo)
        assert FSJoin(config, cluster).run(CORPUS).result_pairs == naive_self_join(
            CORPUS, theta, func
        )
        assert FSJoin(config, cluster).run(LEFT, right=RIGHT).result_pairs == (
            naive_rs_join(LEFT, RIGHT, theta, func)
        )
