"""Property: snapshots taken between writes always load probe-consistent.

The streaming write path interleaves ``apply_batch`` with snapshotting
(flushes persist sealed memtables, ``repro ingest --snapshot`` saves the
live index), so the serving layer's contract must hold at *every* write
boundary: a snapshot saved after any prefix of batches loads to an index
whose probes are bit-identical to the live one's — on both probe paths.
"""

from __future__ import annotations

import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.records import Record, RecordCollection
from repro.service import SegmentIndex, load_index, save_index
from tests.conftest import records_of

TOKENS = [f"w{i}" for i in range(25)]

token_sets = st.lists(
    st.sampled_from(TOKENS), min_size=1, max_size=8, unique=True
)


class TestSnapshotBetweenWrites:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        base=st.lists(token_sets, min_size=1, max_size=8),
        batches=st.lists(
            st.lists(token_sets, min_size=1, max_size=4),
            min_size=1, max_size=4,
        ),
        theta=st.sampled_from([0.3, 0.6]),
    )
    def test_every_write_boundary_snapshots_consistently(
        self, base, batches, theta, tmp_path
    ):
        records = records_of(base)
        index = SegmentIndex.build(records, n_vertical=4)
        queries = list(base)
        next_rid = len(base)
        path = tmp_path / "boundary.idx"

        for batch_tokens in batches:
            batch = [
                Record.make(next_rid + i, tokens)
                for i, tokens in enumerate(batch_tokens)
            ]
            next_rid += len(batch)
            index.apply_batch(batch)
            queries.extend(batch_tokens)

            save_index(index, path)
            loaded = load_index(path)
            for query in queries:
                assert loaded.probe(query, theta) == index.probe(
                    query, theta
                )

    def test_snapshot_bytes_equal_fresh_build(self, tmp_path):
        """Growing by batches then snapshotting equals building once: the
        snapshot carries no residue of the write history."""
        base = records_of(
            [TOKENS[i:i + 4] for i in range(10)]
        )
        grown = SegmentIndex.build(base, n_vertical=4)
        tail = [Record.make(10 + i, TOKENS[2 * i:2 * i + 5])
                for i in range(5)]
        grown.apply_batch(tail)

        everything = RecordCollection(list(base) + tail)
        # Same order/pivots as the grown index, records in rid order.
        fresh = SegmentIndex(grown.order, grown.partitioner,
                             grown.pivot_method)
        fresh._insert_columns([fresh._encode(record) for record in
                               sorted(everything, key=lambda r: r.rid)])
        fresh._seal()
        assert pickle.dumps(grown) == pickle.dumps(fresh)
