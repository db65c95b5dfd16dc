"""The ordering phase: global token ordering by ascending term frequency.

FS-Join (and RIDPairsPPJoin, which it borrows the method from) sorts the
token universe by ascending term frequency so that rare tokens come first —
this is what makes prefixes selective.  One MapReduce job computes the
frequencies; the driver then assigns each token an integer *rank* (0 =
rarest).  All downstream processing works on rank tuples, which are compact
and compare fast.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data.records import Record, RecordCollection
from repro.errors import DataError
from repro.mapreduce.job import JobContext, MapReduceJob
from repro.mapreduce.runtime import JobResult, SimulatedCluster


class TokenFrequencyJob(MapReduceJob):
    """Classic word count over record token sets, combined in the mapper.

    Each map task counts its tokens on its context and emits one
    ``(token, count)`` per distinct token from ``cleanup``, in first-seen
    order: the pairs, bytes and group order a per-token emit folded by a
    summing combiner would ship, without the per-token emits.
    """

    name = "fsjoin-ordering"

    def setup(self, context: JobContext) -> None:
        context.token_counts = Counter()

    def map(self, key, value: Record, emit, context: JobContext) -> None:
        context.token_counts.update(value.tokens)

    def cleanup(self, emit, context: JobContext) -> None:
        for token, count in context.token_counts.items():
            emit(token, count)

    def reduce(self, key, values: List[int], emit, context: JobContext) -> None:
        emit(key, sum(values))


class GlobalOrder:
    """A total order over the token universe: token → rank.

    Rank 0 is the rarest token (ascending term frequency; ties broken
    lexicographically so the order is deterministic).  Also keeps the
    frequency of every rank, which the Even-TF pivot selector needs.
    """

    def __init__(self, frequencies: Sequence[Tuple[str, int]]) -> None:
        ordered = sorted(frequencies, key=lambda item: (item[1], item[0]))
        self._rank: Dict[str, int] = {
            token: rank for rank, (token, _) in enumerate(ordered)
        }
        self._tokens: List[str] = [token for token, _ in ordered]
        self._freqs: List[int] = [freq for _, freq in ordered]

    @property
    def vocab_size(self) -> int:
        return len(self._tokens)

    def knows(self, token: str) -> bool:
        """Whether ``token`` is part of the ordering."""
        return token in self._rank

    def extend(self, frequencies: Sequence[Tuple[str, int]]) -> int:
        """Append unseen tokens *after* every existing rank; returns the count.

        The incremental-indexing hook (service ``apply_batch``): existing
        ranks — and everything derived from them (encoded records, pivot
        cuts, posting lists) — stay valid, because new tokens only extend
        the order at the high end.  The appended tokens are ordered among
        themselves by ``(frequency, token)``, mirroring the constructor;
        tokens already present are ignored (their global frequency is not
        updated — the order is a fixed total order, not a live histogram).
        """
        fresh: Dict[str, int] = {}
        for token, freq in frequencies:
            if token not in self._rank and token not in fresh:
                fresh[token] = freq
        self.append_at(
            len(self._tokens),
            sorted(fresh.items(), key=lambda item: (item[1], item[0])),
        )
        return len(fresh)

    def append_at(
        self, first_id: int, entries: Iterable[Tuple[str, int]]
    ) -> None:
        """Give ``entries`` — unseen ``(token, frequency)`` pairs — the
        ranks ``first_id``, ``first_id + 1``, … in the order given.

        The one place a rank is assigned after construction.
        :meth:`extend` sorts one call's fresh tokens and lands here; a
        reader putting back ranks that were assigned earlier (the ingest
        tier's order log) calls this directly with :meth:`entries`' output
        and must never go through :meth:`extend`: a stored run spans
        several ``extend`` calls, and sorting across them would re-rank it.  Ranks are positions, so
        ``first_id`` has to be the current size.
        """
        if first_id != len(self._tokens):
            raise DataError(
                f"cannot append at rank {first_id}: the ordering ends at "
                f"{len(self._tokens)}"
            )
        for token, freq in entries:
            self._rank[token] = len(self._tokens)
            self._tokens.append(token)
            self._freqs.append(freq)

    def entries(self, start: int = 0) -> Tuple[Tuple[str, int], ...]:
        """The ``(token, frequency)`` pairs of ranks ``start`` and up, in
        rank order — what :meth:`append_at` takes back."""
        return tuple(zip(self._tokens[start:], self._freqs[start:]))

    def token(self, rank: int) -> str:
        """Inverse lookup (rank → token)."""
        return self._tokens[rank]

    def divergence_from(self, live: "GlobalOrder") -> Optional[int]:
        """The first rank at which this order is not a prefix of ``live``
        — a token ``live`` ranks elsewhere, or does not reach — or
        ``None`` when it is one.  How a stored order (an ingest tier's
        order log, a saved cluster's snapshot) is checked before data
        encoded under it is served under ``live``, the order the router
        encodes queries with: only a prefix's ids mean the same tokens."""
        tokens = live._tokens
        for rank, token in enumerate(self._tokens):
            if rank >= len(tokens) or tokens[rank] != token:
                return rank
        return None

    @property
    def rank_frequencies(self) -> Sequence[int]:
        """Frequencies indexed by rank (ascending)."""
        return self._freqs

    def encode(self, record: Record) -> Tuple[int, ...]:
        """Record tokens as a strictly increasing tuple of ranks."""
        rank = self._rank
        try:
            return tuple(sorted(rank[token] for token in record.tokens))
        except KeyError as exc:
            raise DataError(
                f"record {record.rid} contains token {exc.args[0]!r} "
                "outside the global ordering"
            ) from None

    def decode(self, ranks: Sequence[int]) -> Tuple[str, ...]:
        """Ranks back to tokens: ``SegmentIndex.tokens_of``, which
        ``repro search --rid`` and ``repro cluster search --rid`` probe."""
        return tuple(self._tokens[rank] for rank in ranks)


def compute_global_ordering(
    cluster: SimulatedCluster,
    records: RecordCollection,
    num_reduce_tasks: Optional[int] = None,
) -> Tuple[GlobalOrder, JobResult]:
    """Run the ordering job and build the :class:`GlobalOrder`."""
    result = cluster.run_job(
        TokenFrequencyJob(),
        [(record.rid, record) for record in records],
        num_reduce_tasks=num_reduce_tasks,
    )
    return GlobalOrder(result.output), result
