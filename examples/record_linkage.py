#!/usr/bin/env python
"""Record linkage: joining a dirty feed against a clean master list.

Uses the R-S join, ``FSJoin.run(feed, right=master)``: two collections
instead of a self-join, on the self-join's driver.  A "master" corpus is
joined with a "feed" whose records are mutated copies of master records
plus unrelated noise.  Also shows the approximate (MinHash-LSH)
path on the same task and scores its recall against the exact join.

Run:  python examples/record_linkage.py
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import ClusterSpec, SimulatedCluster
from repro.approx import LSHJoin, evaluate_approximate
from repro.core import FSJoin, FSJoinConfig
from repro.data.records import Record, RecordCollection
from repro.data.synthetic import WIKI_LIKE, generate

THETA = 0.8


def build_collections(seed: int = 13):
    """A clean master list and a dirty feed referencing half of it."""
    spec = dataclasses.replace(
        WIKI_LIKE, n_records=200, duplicate_fraction=0.0
    )
    master = generate(spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    feed_rows = []
    links = 0
    for rid in range(150):
        if rid < 100:  # mutated copy of a master record
            source = master[int(rng.integers(0, len(master)))]
            tokens = list(source.tokens)
            for _ in range(max(1, len(tokens) // 12)):
                tokens[int(rng.integers(0, len(tokens)))] = f"noise{rng.integers(1e6)}"
            feed_rows.append(Record.make(rid, tokens))
            links += 1
        else:  # unrelated noise record
            tokens = [f"junk{rng.integers(1e6)}" for _ in range(int(rng.integers(5, 40)))]
            feed_rows.append(Record.make(rid, tokens))
    return master, RecordCollection(feed_rows), links


def main() -> None:
    master, feed, planted = build_collections()
    print(f"master: {len(master)} records; feed: {len(feed)} records "
          f"({planted} derived from master)\n")

    # Exact R-S join with FS-Join.
    cluster = SimulatedCluster(ClusterSpec(workers=10))
    config = FSJoinConfig(theta=THETA, n_vertical=20, n_horizontal=4)
    exact = FSJoin(config, cluster).run(feed, right=master)
    print(f"exact FS-Join R-S: {len(exact.pairs)} links at jaccard >= {THETA}")
    matched_feed = {rid for rid, _ in exact.result_pairs}
    print(f"  feed records linked to a master record: {len(matched_feed)}")

    # Approximate path: LSH over the union, filtered to cross pairs.
    union = RecordCollection()
    offset = len(feed)
    for record in feed:
        union.add(record)
    for record in master:
        union.add(Record(record.rid + offset, record.tokens))
    approx = LSHJoin(THETA, num_perm=128, seed=3).run(union)
    cross = {
        (a, b - offset): score
        for (a, b), score in approx.items()
        if a < offset <= b
    }
    quality = evaluate_approximate(cross, exact.result_pairs)
    print(f"\nMinHash-LSH (128 perms): {len(cross)} links, "
          f"recall {quality.recall:.2f}, precision {quality.precision:.2f}")

    best = sorted(exact.result_pairs.items(), key=lambda item: -item[1])[:5]
    print("\nstrongest links (feed -> master):")
    for (feed_rid, master_rid), score in best:
        print(f"  feed {feed_rid:3d} -> master {master_rid:3d}  jaccard {score:.3f}")


if __name__ == "__main__":
    main()
