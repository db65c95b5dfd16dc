"""Memtable tests, centered on the merge-exactness property.

The memtable is a plain :class:`SegmentIndex` over the tier's shared order
and cuts.  The streaming index's read path concatenates per-tier probe
results (memtable + immutable generations) and sorts by ``(-score, rid)``.
That is only sound if it is bit-identical to probing one index built from
the union of all tiers' records (and to a brute-force scan of them) — the
property the hypothesis test below pins down for arbitrary tier splits
and queries that mix known and memtable-only vocabulary.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import Record, RecordCollection
from repro.ingest import IngestConfig, StreamingIndex
from repro.mapreduce.hdfs import InMemoryDFS
from repro.service import SegmentIndex
from tests.conftest import brute_force_search

TOKENS = [f"w{i}" for i in range(30)]

token_sets = st.lists(
    st.sampled_from(TOKENS), min_size=1, max_size=8, unique=True
)


def _shared_layout(base_records, n_vertical=4):
    """Order + pivots from the base tier, as the streaming index does."""
    base = SegmentIndex.build(
        RecordCollection(base_records), n_vertical=n_vertical
    )
    return base.order, base.partitioner


def _build_tier(records, order, partitioner):
    index = SegmentIndex(order, partitioner)
    index._insert_columns([index._encode(record) for record in
                           sorted(records, key=lambda r: r.rid)])
    index._seal()
    return index


class TestMergeExactness:
    @settings(max_examples=40, deadline=None)
    @given(
        base=st.lists(token_sets, min_size=1, max_size=10),
        fresh=st.lists(token_sets, min_size=0, max_size=6),
        query=token_sets,
        theta=st.sampled_from([0.25, 0.5, 0.75]),
    )
    def test_tiered_probe_equals_union_probe(self, base, fresh, query, theta):
        base_records = [Record.make(i, t) for i, t in enumerate(base)]
        fresh_records = [
            Record.make(len(base) + i, t) for i, t in enumerate(fresh)
        ]
        order, partitioner = _shared_layout(base_records)
        generation = _build_tier(base_records, order, partitioner)
        memtable = SegmentIndex(order, partitioner)
        if fresh_records:
            memtable.apply_batch(fresh_records)

        union = _build_tier(
            base_records + fresh_records, order, partitioner
        )
        encoded = union.encode_query(query)
        merged = sorted(
            generation.probe_batch([encoded], theta)[0]
            + memtable.probe_batch([encoded], theta)[0],
            key=lambda hit: (-hit.score, hit.rid),
        )
        assert [merged] == union.probe_batch([encoded], theta)
        assert merged == brute_force_search(
            base_records + fresh_records, query, theta
        )

    def test_memtable_vocabulary_growth_keeps_generations_valid(self):
        """Interned ids are append-only: a generation built before the
        memtable saw new vocabulary still probes exactly."""
        base_records = [Record.make(i, TOKENS[i:i + 4]) for i in range(8)]
        order, partitioner = _shared_layout(base_records)
        generation = _build_tier(base_records, order, partitioner)
        before = [generation.probe(r.tokens, 0.5) for r in base_records]

        memtable = SegmentIndex(order, partitioner)
        memtable.apply_batch(
            [Record.make(100, ["nv-a", "nv-b"] + TOKENS[:2])]
        )
        after = [generation.probe(r.tokens, 0.5) for r in base_records]
        assert before == after
        hits = memtable.probe(["nv-a", "nv-b"], 0.4)
        assert [hit.rid for hit in hits] == [100]


class TestMemtableLifecycle:
    def test_records_materialize_in_rid_order(self):
        order, partitioner = _shared_layout(
            [Record.make(0, TOKENS[:3])]
        )
        memtable = SegmentIndex(order, partitioner)
        memtable.apply_batch([Record.make(7, TOKENS[3:6]),
                              Record.make(3, TOKENS[1:4])])
        assert memtable.rids() == [3, 7]
        assert set(memtable.tokens_of(3)) == set(TOKENS[1:4])
        assert set(memtable.tokens_of(7)) == set(TOKENS[3:6])
        assert len(memtable) == 2
        assert 7 in memtable and 4 not in memtable

    def test_seal_hands_off_the_inner_index(self):
        """A flush seals the memtable in place: the very index that
        absorbed the batch becomes the level-0 generation, and a fresh
        empty memtable over the same order and cuts takes over."""
        streaming = StreamingIndex.create(
            InMemoryDFS(),
            records=RecordCollection([Record.make(0, TOKENS[:3])]),
            n_vertical=4, config=IngestConfig(memtable_limit=1_000),
        )
        memtable = streaming.memtable
        streaming.apply_batch([Record.make(5, TOKENS[:4])])
        sealed = streaming.flush().index
        assert sealed is memtable
        assert streaming.memtable is not memtable
        assert not len(streaming.memtable)
        assert streaming.memtable.partitioner is memtable.partitioner
        assert [hit.rid for hit in sealed.probe(TOKENS[:4], 0.9)] == [5]
