#!/usr/bin/env python
"""Streaming deduplication: keep a self-join exact as batches arrive.

Records arrive in batches (a nightly ingest, say); instead of re-joining
the growing corpus from scratch, the first batch is joined once with
FS-Join and indexed, and every later batch is appended to the index and
probed against it.  One probe of a batch's own records returns its whole
delta — new×new plus new×old — so the global result set stays exact.

Run:  python examples/streaming_dedup.py
"""

from __future__ import annotations

import random

from repro import FSJoin, FSJoinConfig
from repro.data import make_corpus
from repro.data.records import RecordCollection
from repro.service import SegmentIndex
from repro.similarity.selectivity import estimate_result_count

THETA = 0.85
N_VERTICAL = 20
BATCH_SIZES = (120, 60, 60, 60)


def main() -> None:
    full = make_corpus("wiki", sum(BATCH_SIZES), seed=29, mutation_rate=0.06)
    all_records = list(full)
    # The generator appends near-duplicates last; shuffle so every batch
    # carries some (as a real ingest would).
    random.Random(7).shuffle(all_records)

    first = RecordCollection(all_records[: BATCH_SIZES[0]])
    results = dict(FSJoin(
        FSJoinConfig(theta=THETA, n_vertical=N_VERTICAL)
    ).run(first).result_pairs)
    index = SegmentIndex.build(first, n_vertical=N_VERTICAL)
    print(
        f"batch 0: initialized with {BATCH_SIZES[0]} records, "
        f"{len(results)} duplicate pairs"
    )

    cursor = BATCH_SIZES[0]
    for batch_no, size in enumerate(BATCH_SIZES[1:], start=1):
        batch = all_records[cursor : cursor + size]
        cursor += size
        index.apply_batch(batch)
        queries = [index.encode_query(record.tokens) for record in batch]
        delta = {}
        for record, hits in zip(batch, index.probe_batch(queries, THETA)):
            for hit in hits:
                if hit.rid != record.rid:
                    delta[tuple(sorted((record.rid, hit.rid)))] = hit.score
        results.update(delta)
        print(
            f"batch {batch_no}: +{size} records, {len(delta)} new pairs, "
            f"{len(results)} total"
        )

    # Planner-style sanity check: the sampling estimator against reality.
    estimate = estimate_result_count(
        RecordCollection(all_records), THETA, sample_size=150, trials=5,
        seed=1,
    )
    print(
        f"\nsampling estimate of the final result count: "
        f"{estimate.estimated_pairs:.0f} (actual {len(results)})"
    )

    strongest = sorted(results.items(), key=lambda item: (-item[1], item[0]))
    print("\nstrongest duplicate pairs:")
    for (rid_a, rid_b), score in strongest[:3]:
        print(f"  {rid_a:4d} ~ {rid_b:4d}  jaccard {score:.3f}")


if __name__ == "__main__":
    main()
