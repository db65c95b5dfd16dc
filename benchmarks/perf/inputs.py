"""Seeded inputs: the program under test only ever sees what this makes."""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass
from typing import List, Tuple

from repro.data import Record, RecordCollection, make_corpus

from spec import ZIPF_S, WorkloadSpec


@dataclass
class Inputs:
    """One workload's inputs, all derived from one seed."""

    base: RecordCollection          # joined (batch) or indexed (serving)
    queries: List[Tuple[str, ...]]  # probe token sets, in replay order
    stream: List[Record]            # records appended by the mixed legs
    picks: List[int]                # Zipf-drawn query indices of the mixed legs
    generate_s: float               # median make_corpus wall over the repeats
    sha256: str

    def append_batches(self, size: int) -> List[List[Record]]:
        return [self.stream[i:i + size]
                for i in range(0, len(self.stream) - size + 1, size)]


def record_bytes(records) -> int:
    """Bytes of the records in the corpus text format (tokens + separators)."""
    return sum(len(token) + 1 for record in records for token in record.tokens)


def make_inputs(spec: WorkloadSpec, seed: int) -> Inputs:
    """Generate, shuffle and split the corpus; draw the Zipf picks.

    ``make_corpus`` appends its near-duplicates after their sources, so
    the seeded shuffle is what spreads similar pairs across the base,
    query and stream splits.
    """
    walls = []
    for _ in range(spec.setup_repeats):
        started = time.perf_counter()
        records = list(make_corpus("wiki", spec.n_records, seed=seed))
        walls.append(time.perf_counter() - started)
    random.Random(seed).shuffle(records)
    base = records[:spec.n_base]
    stream = records[spec.n_base:spec.n_base + spec.n_stream]
    # A near-duplicate can come out identical to its source, and the
    # gateway caches by token set: keep queries distinct from each other
    # and from the warm-up probes, so only a replayed query can ever hit.
    seen = {frozenset(record.tokens) for record in base[:spec.warmup]}
    queries = []
    for record in records[spec.n_base + spec.n_stream:]:
        if len(queries) < spec.n_queries and frozenset(record.tokens) not in seen:
            seen.add(frozenset(record.tokens))
            queries.append(record.tokens)
    if len(queries) < spec.n_queries:
        raise ValueError(f"{spec.name}: seed {seed} left only {len(queries)} "
                         f"distinct queries of {spec.n_queries}")
    n_picks = spec.n_appends * spec.searches_per_append
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(queries))]
    picks = random.Random(f"{seed}:zipf").choices(
        range(len(queries)), weights=weights, k=n_picks) if n_picks else []
    digest = hashlib.sha256()
    for record in base + stream:
        digest.update(f"{record.rid}\t{' '.join(record.tokens)}\n".encode())
    for tokens in queries:
        digest.update(f"q\t{' '.join(tokens)}\n".encode())
    digest.update(repr((picks, spec.theta)).encode())
    return Inputs(
        base=RecordCollection(base), queries=queries, stream=stream,
        picks=picks, generate_s=statistics.median(walls),
        sha256=digest.hexdigest(),
    )
