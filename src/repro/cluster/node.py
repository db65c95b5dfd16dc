"""Shard-local state: a fragment-sliced index and the node that serves it.

A :class:`ShardSlice` is a :class:`~repro.service.index.SegmentIndex`
restricted to the fragments a shard owns: it keeps the columnar posting
runs for owned fragments only, plus the *full* id column of every record
that posts into them — the id column is exactly what verification and the
claim rule read, and all a record is, so a slice probes with the
unmodified single-node code: it defines no candidate generator of its own.

The one thing a slice changes is the *owned set* the base scan
(:meth:`SegmentIndex._scan_candidates
<repro.service.index.SegmentIndex._scan_candidates>`) walks.  On a single
node, a candidate's "first hit" is the globally smallest-id common prefix
token (Theorem 1: each pair is generated in exactly one fragment).  Across
shards the same pair collides on several shards' fragments; each slice
lists it at *its own* first hit and verifies it from there, and the claim
rule is asked of the pairs that pass:

    a slice reports hit ``t`` iff the first common token between the
    probe prefix and ``t`` lies in a fragment this slice owns.

The rule is locally checkable — the slice holds ``t``'s full id column, and
a probe token below its first hit that ``t`` holds can only be one it did
not scan, in a fragment another slice owns — and it assigns every (query,
hit) pair to exactly one shard: candidate sets overlap, hit lists do not
(the exactness argument is in :meth:`SegmentIndex._evaluate_columnar
<repro.service.index.SegmentIndex._evaluate_columnar>`).  The union of
per-shard hit lists is bit-identical to ``SegmentIndex.probe``
(``tests/test_cluster_router.py`` property-tests this, failure injection
and rebalance included).  The full index is the slice that owns every
fragment: every first hit is the pair's first common token, nothing to ask.

A :class:`ShardNode` wraps one slice as a routable endpoint: replica
identity, a liveness flag the failure injector flips, and per-node
counters.  In this simulated cluster, replicas of one shard share the slice
object (the data is read-only at serve time) and slices hold the columns
of the index they were carved from — its posting columns, each fragment's
in the one slice that owns it, and its record id columns, shared;
``independent_replicas`` gives each replica beyond the first its own copy
(:meth:`ShardSlice.clone`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import inf
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.errors import ClusterError, ConfigError, ShardDownError
from repro.mapreduce.counters import Counters
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.service.columnar import FragmentPostings
from repro.service.index import EncodedQuery, SearchHit, SegmentIndex
from repro.similarity.functions import SimilarityFunction


@dataclass
class FragmentPayload:
    """One fragment's shippable state (the unit a migration moves).

    ``postings`` is the fragment's columnar inverted lists; ``records``
    carries the full id column of every record posting in the fragment,
    because the receiving slice may not know those records yet.
    """

    fragment: int
    postings: FragmentPostings
    records: Dict[int, Sequence[int]]


class ShardSlice(SegmentIndex):
    """A SegmentIndex restricted to an owned set of fragments: it scans
    their posting runs only, verifies each candidate from its own first
    hit and reports the hits whose first common token it owns — its
    candidates may also be another slice's, its hits never are."""

    def __init__(self, order, partitioner, pivot_method,
                 owned: Iterable[int]) -> None:
        super().__init__(order, partitioner, pivot_method)
        self._owned: set = set(owned)
        for v in self._owned:
            if not 0 <= v < partitioner.n_partitions:
                raise ClusterError(
                    f"fragment {v} out of range for "
                    f"{partitioner.n_partitions} partitions"
                )

    @property
    def owned_fragments(self) -> FrozenSet[int]:
        return frozenset(self._owned)

    @classmethod
    def carve(
        cls, index: SegmentIndex, fragments: Iterable[int]
    ) -> "ShardSlice":
        """Slice a full index down to ``fragments``, copying nothing.

        The slice takes each owned fragment's posting columns — the
        :class:`FragmentPostings` object itself — and the id column of
        every record posting into them, keyed by the index's own rid
        objects, so a record is one key however many slices hold it.
        ``index`` must not be written to afterwards: a record staged into
        it would show through the slice's runs.  That holds for an index
        unpickled for the carve (:func:`~repro.cluster.build.load_cluster`,
        a repair from the snapshot), and :func:`~repro.cluster.build.
        build_cluster` hands over a copy of a caller's live index.
        """
        slice_ = cls(
            index.order, index.partitioner, index.pivot_method, fragments
        )
        index._seal()
        for v in slice_._owned:
            slice_._postings[v] = index._postings[v]
        # A record posts into a fragment iff its id column holds an id of
        # the fragment's range, which one bisect finds: no set of the
        # posted rids, as large as the table it filters, is built.
        cuts = index.partitioner.cuts
        ranges = [(cuts[v - 1] if v else 0, cuts[v] if v < len(cuts) else inf)
                  for v in slice_._owned]

        def posts(ranks) -> bool:
            for lo, hi in ranges:
                i = bisect_left(ranks, lo)
                if i < len(ranks) and ranks[i] < hi:
                    return True
            return False

        slice_._ranks = {
            rid: ranks for rid, ranks in index._ranks.items() if posts(ranks)
        }
        return slice_

    # -- replica independence ------------------------------------------
    def clone(self) -> "ShardSlice":
        """A deep, independent copy of this slice.

        A pickle round-trip, so nothing is shared with the source — not
        even the record columns slices carved from one index share:
        corrupting (or rebuilding) the clone cannot touch the original.
        ``independent_replicas`` and peer repair use it.  Nothing *saved*
        is a pickled slice (:mod:`repro.cluster.build`): it would copy
        every column the slice references, 7.8 of 8 shards per record.
        """
        import pickle

        return pickle.loads(pickle.dumps(self))

    # -- lifecycle guards ----------------------------------------------
    def apply_batch(self, new_records) -> int:
        raise ClusterError(
            "a shard slice cannot ingest records directly; apply the batch "
            "to the full index and rebuild the cluster"
        )

    # -- fragment migration --------------------------------------------
    def extract_fragment(self, fragment: int) -> FragmentPayload:
        """Package one owned fragment for shipping to another shard."""
        if fragment not in self._owned:
            raise ClusterError(f"fragment {fragment} is not owned by this slice")
        postings = self._postings[fragment].copy()
        records = {rid: self._ranks[rid] for rid in set(postings.rids)}
        return FragmentPayload(fragment, postings, records)

    def install_fragment(self, payload: FragmentPayload) -> None:
        """Adopt a migrated fragment (postings + any unseen record data)."""
        if payload.fragment in self._owned:
            raise ClusterError(
                f"fragment {payload.fragment} is already owned by this slice"
            )
        self._owned.add(payload.fragment)
        self._postings[payload.fragment] = payload.postings.copy()
        for rid, ranks in payload.records.items():
            self._ranks.setdefault(rid, ranks)

    def drop_fragment(self, fragment: int) -> None:
        """Release a migrated-away fragment and garbage-collect its records.

        A record's id column stays only while some *other* owned fragment
        still posts it; the fragments a record touches are
        ``split_bounds`` of that column.
        """
        if fragment not in self._owned:
            raise ClusterError(f"fragment {fragment} is not owned by this slice")
        self._owned.discard(fragment)
        departing = self._postings[fragment]  # sealed: slices never stage
        self._postings[fragment] = FragmentPostings()
        split_bounds = self.partitioner.split_bounds
        for rid in set(departing.rids):
            if rid not in self._ranks:
                continue
            if not any(
                v in self._owned for v, _, _ in split_bounds(self._ranks[rid])
            ):
                del self._ranks[rid]


class _ScatterNode:
    """What the router asks of a scatter participant: liveness, fencing,
    a fault hook, counters, and one serving call over the index it wraps
    (``self.slice`` — anything with ``probe_batch``/``tokens_of``)."""

    def __init__(self, slice_) -> None:
        self.slice = slice_
        self.alive = True
        #: fencing flag: a fenced replica refuses *all* service (pings
        #: fail, probes raise) even while ``alive`` — the repair path's
        #: guarantee that a mid-rebuild replica can never serve stale or
        #: unverified answers.  Only verified readmission unfences.
        self.fenced = False
        self.counters = Counters()
        #: optional chaos hook, called with this node at the top of every
        #: probe (after the liveness check, before any work).  It may raise
        #: :class:`ShardDownError` to crash the probe mid-flight, or advance
        #: an injected clock to model a latency spike — the router's
        #: deadline checks run on the same clock, so injected latency is
        #: observable without real sleeps.
        self.fault_hook = None

    # -- health --------------------------------------------------------
    def fail(self) -> None:
        """Injected failure: the node stops answering until restored."""
        self.alive = False

    def restore(self) -> None:
        """Flip the liveness flag back.

        Note this alone does *not* rejoin the router's rotation cleanly —
        the replica's circuit breaker may still be open.  Follow it with
        :meth:`~repro.cluster.router.ClusterRouter.readmit_replica` for
        the verified-readmission path (verify against a healthy peer →
        close the breaker).
        """
        self.alive = True

    def fence(self) -> None:
        """Quarantine: stop serving until verified readmission unfences."""
        self.fenced = True

    def unfence(self) -> None:
        self.fenced = False

    def ping(self) -> bool:
        """Health check: can this replica serve a probe right now?"""
        return self.alive and not self.fenced

    def adopt_slice(self, slice_) -> None:
        """Swap in a rebuilt slice (the repair path's re-hydration step)."""
        self.slice = slice_

    # -- serving -------------------------------------------------------
    def probe_batch(
        self,
        queries: Sequence[EncodedQuery],
        theta: float,
        func: SimilarityFunction,
        tracer: Tracer = NOOP_TRACER,
    ) -> List[List[SearchHit]]:
        """Serve one scatter leg (fragment-grouped posting scans, claim
        rule preserved); raises :class:`ShardDownError` if failed.  The
        fault hook fires once per batch — a crashed replica loses the
        whole leg."""
        self._check_serving()
        if self.fault_hook is not None:
            self.fault_hook(self)
        self.counters.increment("cluster.node", "probes", len(queries))
        return self.slice.probe_batch(
            queries, theta, func, self.counters, tracer
        )

    def tokens_of(self, rid: int) -> Tuple[str, ...]:
        """The record's tokens from this replica's slice (``--rid``)."""
        self._check_serving()
        return self.slice.tokens_of(rid)

    def _check_serving(self) -> None:
        # Serving checks the raw flags, not ping(): a replica whose health
        # check lies (or is stubbed in tests) must still crash the probe so
        # the router fails over instead of serving from a dead copy.
        if not self.alive or self.fenced:
            state = "fenced" if self.alive else "down"
            raise ShardDownError(f"{self.name} is {state}")

    def __contains__(self, rid: int) -> bool:
        """Whether this replica holds ``rid``: how ``--rid`` finds a shard."""
        return rid in self.slice


class ShardNode(_ScatterNode):
    """One routable replica of one shard."""

    def __init__(self, shard_id: int, replica_id: int,
                 slice_: ShardSlice) -> None:
        super().__init__(slice_)
        self.shard_id = shard_id
        self.replica_id = replica_id

    @property
    def name(self) -> str:
        return f"shard{self.shard_id}/r{self.replica_id}"

    def probe(
        self,
        query: EncodedQuery,
        theta: float,
        func: SimilarityFunction,
        filters: None = None,
        tracer: Tracer = NOOP_TRACER,
    ) -> List[SearchHit]:
        """Serve one query: a batch of one through :meth:`probe_batch`."""
        # Harness-pinned slot: benchmarks/perf/layers.py:266,280 call
        # probe(query, theta, func, router.filters[, tracer]) positionally.
        if filters is not None:
            raise ConfigError("the serving probe takes no filter config")
        return self.probe_batch([query], theta, func, tracer)[0]


class IngestNode(_ScatterNode):
    """The write tier as a routable scatter participant.

    Wraps a :class:`~repro.ingest.streaming.StreamingIndex` as the node's
    slice, so freshly ingested records are served by one extra scatter
    leg per batch.  Exactness needs no claim rule here: the ingest tier's
    record ids are disjoint from every shard's (the router rejects
    duplicates at admission), and the streaming index is exact over its
    own records, so gather stays concat-and-sort, dedup-free.
    """

    shard_id = -1
    replica_id = 0
    name = "ingest/r0"

    @property
    def streaming(self):
        return self.slice
