"""The persistent segment index behind the online similarity service.

FS-Join's vertical-partitioning machinery (global ordering → pivots →
disjoint segments) is used offline as a *shuffle key*: fragments exist only
for the duration of one filter job.  :class:`SegmentIndex` turns the same
machinery into a *queryable index*:

* the corpus is interned under one :class:`~repro.service.vocab.TokenVocab`
  (dense integer ids in global frequency order) and split at Even-TF pivots
  exactly as the filter job's map phase does;
* every fragment's postings live in a :class:`~repro.service.columnar.
  FragmentPostings` — flat ``array`` columns mapping token id → a
  contiguous run of record ids — so a probe batch scans each posting run
  with plain integer reads and zero per-entry allocations;
* a record is its full id column (``array('I')``, 4 bytes an id): all a
  probe reads of a candidate, and all that is stored of it — the segment
  a fragment holds of a record is ``partitioner.split_bounds`` of that
  column, computed by the insert that posts it and the migration that
  asks which fragments a record touches.

A probe is exact: candidate generation uses the record-level prefix filter
(complete because the index stores *all* tokens while the probe scans only
its prefix — any pair with ``sim ≥ θ`` must collide on a probed token),
and on each posting run it reads only the window of record lengths that
can still pass — the length filter (Lemma 1) and the query's half of
PPJoin's positional filter, both of which only discard pairs whose sizes
prove them dissimilar.  Runs are sorted by record length, so the window
is two bisects (:func:`probe_window`, :meth:`FragmentPostings.window
<repro.service.columnar.FragmentPostings.window>`).  Candidates go
through the same early-terminating merge + threshold rule as
:func:`repro.similarity.verify.verify_pair` — started at the pair's first
hit, below which the scan has already shown the two records share
nothing.  The probe verifies, it does not re-filter: the fragment lemmas
of :mod:`repro.core.filters` are for a reducer that holds one fragment of
each record, and a slice holds the whole column.
``tests/test_service_index.py`` property-tests that ``probe`` returns
precisely the partner set ``FSJoin.run`` produces, for several θ and
similarity functions.

There is one candidate scan, :meth:`SegmentIndex._scan_candidates`, and
one way to it, :meth:`SegmentIndex.probe_batch`: a single probe is a batch
of one, and a full index is the slice that owns every fragment (the scan
walks the owned set, which only :class:`~repro.cluster.node.ShardSlice`
narrows, and cedes nothing; the cross-shard claim rule is asked of the
pairs that pass verification, in :meth:`SegmentIndex._evaluate_columnar`).
The scan is batched over the flat posting columns; each query shape's
length window is memoized once per process (:func:`probe_window`, a
bounded LRU of :data:`WINDOW_MEMO` entries shared by every index, slice
and generation), together with τ for every record length in it.  A probe
resolves ``(func, θ)`` to one
:class:`~repro.similarity.thresholds.ThresholdRule`; verification checks
each candidate's opening positional bound before it calls the merge, and
asks the rule for a verdict only when the merge's count reached τ.

**Result-ordering contract**: every probe's hit list is sorted by
``(-score, rid)`` — descending score, ascending record id on ties — and
``probe_batch`` returns lists aligned with its input queries in input
order.  The order is deterministic across serial, thread and process
fan-outs of one batch (``tests/test_service_columnar.py``
regression-tests this).

The index is θ- and function-agnostic: both are probe-time arguments, so
one snapshot serves every threshold (this is what lets
:func:`repro.core.topk.topk_similar_pairs` reuse it across relaxation
rounds).
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile
from struct import pack
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ordering import GlobalOrder, compute_global_ordering
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import PivotMethod, select_pivots
from repro.data.records import Record, RecordCollection
from repro.errors import ConfigError, DataError
from repro.mapreduce.counters import Counters
from repro.mapreduce.runtime import SimulatedCluster
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.service.columnar import FragmentPostings
from repro.service.vocab import TokenVocab
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import (
    ThresholdRule,
    check_threshold,
    length_lower_bound,
    length_upper_bound,
    prefix_length,
    threshold_rule,
)
from repro.similarity.verify import bounded_merge_intersection

#: Counter group for probe-side work (mirrors ``fsjoin.filter`` naming).
PROBE_GROUP = "service.probe"

#: Query shapes — (func, θ, |q|, known tokens) — whose length windows the
#: process remembers (:func:`probe_window` is one memo shared by every
#: index): a long-lived server sees as many θs as its clients send, so the
#: memo is an LRU of this many entries.
WINDOW_MEMO = 1024


@dataclass(frozen=True)
class SearchHit:
    """One search result: an indexed record and its exact similarity."""

    rid: int
    score: float


#: What identifies a shared computation in the result caches and the
#: coalescing layers: (canonical token tuple, θ, func value).
QueryKey = Tuple[Tuple[str, ...], float, str]


def query_key(
    tokens: Iterable[str], theta: float, func: SimilarityFunction
) -> QueryKey:
    return (tuple(sorted(set(tokens))), float(theta), func.value)


def merge_hits(partials: Iterable[List[SearchHit]]) -> List[SearchHit]:
    """Hit lists over disjoint record ids (a shard's slices, an ingest
    tier's generations) as one list in the ``(-score, rid)`` order a
    single index returns — concatenate and sort, nothing to dedupe."""
    merged = [hit for hits in partials for hit in hits]
    merged.sort(key=lambda hit: (-hit.score, hit.rid))
    return merged


def view_hits(
    hits: List[SearchHit], k: Optional[int], exclude: Optional[int]
) -> List[SearchHit]:
    """A caller's own copy of a shared (cached, coalesced or gathered) hit
    list, minus ``exclude``, cut to ``k``."""
    if exclude is not None:
        hits = [hit for hit in hits if hit.rid != exclude]
    else:
        hits = list(hits)
    if k is not None:
        hits = hits[:k]
    return hits


@dataclass(frozen=True)
class EncodedQuery:
    """A probe after interning.

    ``ranks`` are the query tokens known to the index's vocabulary
    (strictly increasing ids); ``n_unknown`` counts tokens outside it.
    Unknown tokens can match nothing, but they still enlarge the query
    set, so they take part in every size-dependent bound.

    ``ranks`` is a plain tuple: it is hashed by the cluster router's
    deterministic retry backoff and compared by the dedup layers.
    """

    ranks: Tuple[int, ...]
    n_unknown: int

    @property
    def size(self) -> int:
        return len(self.ranks) + self.n_unknown


class SegmentIndex:
    """Vertical-partitioned inverted index over a record collection.

    Build once with :meth:`build`, extend with :meth:`apply_batch`, persist
    with :mod:`repro.service.snapshot`.  Probing is read-only and safe to
    share across threads.
    """

    #: The fragments whose posting runs this index scans; ``None`` = all.
    #: A :class:`~repro.cluster.node.ShardSlice` narrows it — the one
    #: thing a slice changes about candidate generation.
    _owned: Optional[set] = None

    def __init__(
        self,
        order: GlobalOrder,
        partitioner: VerticalPartitioner,
        pivot_method: PivotMethod = PivotMethod.EVEN_TF,
    ) -> None:
        self.order = order
        self.vocab = TokenVocab(order)
        self.partitioner = partitioner
        self.pivot_method = PivotMethod(pivot_method)
        #: rid → full token-id column (strictly increasing ``array('I')``).
        self._ranks: Dict[int, array] = {}
        #: fragment id → columnar posting lists.
        self._postings: List[FragmentPostings] = [
            FragmentPostings() for _ in range(partitioner.n_partitions)
        ]
        self._init_transient()

    def _init_transient(self) -> None:
        """State that is derived, never stored (nor pickled)."""
        #: Something was staged into an index that already held records,
        #: so the next seal re-sorts the runs it touches by length.
        self._resort = False

    # -- construction --------------------------------------------------
    @classmethod
    def build(
        cls,
        records: RecordCollection,
        n_vertical: int = 30,
        pivot_method: PivotMethod = PivotMethod.EVEN_TF,
        pivot_seed: int = 0,
        cluster: Optional[SimulatedCluster] = None,
    ) -> "SegmentIndex":
        """Index a collection, reusing the ordering job and pivot selection."""
        cluster = cluster or SimulatedCluster()
        order, _ = compute_global_ordering(cluster, records)
        cuts = select_pivots(
            order.rank_frequencies, n_vertical, method=pivot_method, seed=pivot_seed
        )
        index = cls(order, VerticalPartitioner(cuts), pivot_method)
        index._insert_columns([index._encode(record) for record in records])
        index._seal()
        return index

    def _encode(self, record: Record) -> Tuple[int, array]:
        """``(rid, id column)`` of a record whose tokens are all interned."""
        if record.rid.bit_length() >= 63:
            raise DataError(
                f"record id {record.rid} does not fit the index's 64-bit "
                "posting columns"
            )
        try:
            return record.rid, self.vocab.encode_record(record.tokens)
        except DataError as exc:
            raise DataError(f"record {record.rid}: {exc}") from None

    def _insert_columns(self, columns: Sequence[Tuple[int, array]]) -> None:
        """Index records by their id columns (strictly increasing under
        :attr:`order`): keep the columns in the order given, split each at
        this index's cuts, and stage the postings shortest record first,
        ties by rid.  What a merge calls with columns another index over
        the same order already encoded — ids are append-only, so a column
        is as valid here as there, whatever the cuts.

        Staged into an empty index, every run is then in length order as
        it stands and the seal concatenates; staged into one that holds
        records, the seal re-sorts the runs the stage touched."""
        if self._ranks:
            self._resort = True
        for rid, ids in columns:
            if rid in self._ranks:
                raise DataError(f"record id {rid} already indexed")
            self._ranks[rid] = ids
        split_bounds = self.partitioner.split_bounds
        for rid, ids in sorted(columns, key=lambda c: (len(c[1]), c[0])):
            for v, start, end in split_bounds(ids):
                add = self._postings[v].add
                for token in ids[start:end]:
                    add(token, rid)

    def _seal(self) -> None:
        """Merge staged posting inserts into the flat columns, every run
        in record-length order.  A re-sort keys on a ``rid → length`` map
        built for it and dropped after: a C lookup per entry sorted."""
        length_of = None
        if self._resort:
            ranks = self._ranks
            length_of = dict(zip(ranks, map(len, ranks.values()))).__getitem__
        for postings in self._postings:
            postings.seal(length_of)
        self._resort = False

    def apply_batch(self, new_records: Iterable[Record]) -> int:
        """Extend the index with new records.

        Duplicate record ids raise :class:`DataError` *before* anything is
        inserted, so a rejected batch leaves the index untouched.  Tokens
        outside the vocabulary are interned after every existing id
        (ordered among themselves by batch frequency) via
        :meth:`TokenVocab.extend`: existing ids — and therefore the
        existing posting columns and pivot cuts — stay valid, at the price
        of the new tokens all landing in the last fragment.  Probe
        exactness only needs *a* fixed total order, not a frequency-fresh
        one, so results remain exact; rebuild periodically if fragment
        balance drifts.

        The cost is the batch's: its postings are staged
        (:meth:`FragmentPostings.add`) and the scan reads the stage, so
        the records are searchable on return and nothing the index already
        held is copied.  The stage is merged into the flat columns — each
        touched run re-sorted by record length — by whoever next needs
        them flat: a save, :meth:`posting_stats`, a content digest, a
        carve; the ingest tier's flush.

        This is also an incremental self-join: after ``apply_batch(batch)``
        one :meth:`probe_batch` of the batch's own records, each record's
        hit on itself dropped, is the batch's delta — new×old and new×new
        pairs alike, with the scores a full re-join gives.
        """
        batch = list(new_records)
        seen: set = set()
        for record in batch:
            if record.rid in self._ranks or record.rid in seen:
                raise DataError(f"record id {record.rid} already indexed")
            if record.rid.bit_length() >= 63:
                # Validate *before* any mutation: this check also lives in
                # _encode, but by then the vocab is extended — the batch
                # must be all-or-nothing for snapshot-during-write
                # consistency.
                raise DataError(
                    f"record id {record.rid} does not fit the index's "
                    "64-bit posting columns"
                )
            seen.add(record.rid)
        # Like the record id above, a token id that does not fit the id
        # columns is refused before the vocab is extended.
        fresh = self.vocab.unseen(
            token for record in batch for token in record.tokens
        )
        self.vocab.extend(fresh.items())
        self._insert_columns([self._encode(record) for record in batch])
        return len(batch)

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._ranks)

    def __contains__(self, rid: int) -> bool:
        return rid in self._ranks

    @property
    def n_fragments(self) -> int:
        return self.partitioner.n_partitions

    def rids(self) -> List[int]:
        """Indexed record ids, ascending."""
        return sorted(self._ranks)

    def tokens_of(self, rid: int) -> Tuple[str, ...]:
        """The indexed record's tokens (decoded, global-order sorted): what
        ``repro search --rid`` probes."""
        try:
            ranks = self._ranks[rid]
        except KeyError:
            raise DataError(f"no record with id {rid} in the index") from None
        return self.order.decode(ranks)

    def fragment_loads(self) -> List[int]:
        """Posting entries per fragment — the placement weights of
        :func:`repro.cluster.plan.plan_shards` (and a direct view of how
        evenly the pivots split the corpus)."""
        return [len(postings) for postings in self._postings]

    def posting_stats(self) -> Dict[str, int]:
        """Aggregate index-shape numbers (for logs, benches and status).

        ``posting_bytes`` and ``record_bytes`` are *actual* columnar
        memory — summed ``array.buffer_info()[1] * itemsize`` over the
        posting columns and the per-record id columns — not estimates.
        """
        self._seal()
        return {
            "records": len(self._ranks),
            "fragments": self.n_fragments,
            "vocab": self.vocab.size,
            "postings": sum(len(postings) for postings in self._postings),
            "posting_bytes": sum(
                postings.nbytes() for postings in self._postings
            ),
            "record_bytes": sum(
                column.buffer_info()[1] * column.itemsize
                for column in self._ranks.values()
            ),
        }

    def content_digests(self) -> Dict[int, str]:
        """Canonical sha256 of the *content* of each fragment this index
        scans — what the anti-entropy scrubber compares across a shard's
        replicas.

        A fragment's digest is hashed over its column buffers: the token
        and offset columns, each posting run sorted by record id, then the
        rid, length and id column of every record posting in it, ascending
        — every column a probe reads, fixed-width or length-prefixed so
        the encoding stays injective, and not pickle bytes.  So two indexes
        that answer identically digest identically, however they were
        built (a run's ties are in insertion order, hence the sort), and
        any silent mutation of a posting column or an id column flips the
        digest.  Nothing is encoded beside the columns: a call holds one
        run and one fragment's set of rids at a time.
        """
        owned = range(self.n_fragments) if self._owned is None else self._owned
        self._seal()
        return {v: self._fragment_digest(v) for v in sorted(owned)}

    def _fragment_digest(self, fragment: int) -> str:
        postings = self._postings[fragment]
        tokens, offsets, rids = postings.tokens, postings.offsets, postings.rids
        hasher = hashlib.sha256(pack("<q", len(tokens)))
        hasher.update(tokens)
        hasher.update(offsets)
        for slot in range(len(tokens)):
            hasher.update(array(
                rids.typecode, sorted(rids[offsets[slot]:offsets[slot + 1]])
            ))
        for rid in sorted(set(rids)):
            column = self._ranks[rid]
            hasher.update(pack("<qq", rid, len(column)))
            hasher.update(column)
        return hasher.hexdigest()

    # -- probing -------------------------------------------------------
    def encode_query(self, tokens: Iterable[str]) -> EncodedQuery:
        """Canonicalize probe tokens: dedupe, intern, count unknowns."""
        ids, unknown = self.vocab.encode_known(tokens)
        return EncodedQuery(tuple(ids), unknown)

    def probe(
        self,
        tokens: Iterable[str],
        theta: float,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        counters: Optional[Counters] = None,
        tracer: Optional[Tracer] = None,
    ) -> List[SearchHit]:
        """Exact similarity search: all indexed records with ``sim ≥ θ``.

        A batch of one through :meth:`probe_batch`.  Results are sorted
        best first (ties by record id).  The query record itself — when
        indexed — appears like any other partner; callers that probe by
        an indexed record exclude its own id.
        """
        return self.probe_batch(
            [self.encode_query(tokens)], theta, func, counters, tracer
        )[0]

    def probe_batch(
        self,
        queries: Sequence[EncodedQuery],
        theta: float,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        counters: Optional[Counters] = None,
        tracer: Optional[Tracer] = None,
    ) -> List[List[SearchHit]]:
        """Probe encoded queries — the one way into the posting columns.

        ``theta`` and ``func`` are validated here, once, whatever the
        queries contain (:class:`~repro.errors.ConfigError`).  The
        distinct probe tokens of *all* queries are looked up once each,
        so shared tokens cost one posting lookup instead of one per query
        (the ``posting_lookups`` counter makes the saving measurable).
        Verification then runs per query.

        The returned lists align with ``queries`` (input order) and each
        hit list follows the module's ``(-score, rid)`` ordering contract.
        ``tracer``, when enabled, records the probe stages as spans:
        ``prefix-filter`` (posting scans), then one ``verification`` span
        per query that has candidates.  Tracing never changes results.
        """
        func = checked_probe_args(theta, func)
        rule = threshold_rule(func, theta)
        tracer = tracer if tracer is not None else NOOP_TRACER
        with tracer.span("prefix-filter", phase="service",
                         queries=len(queries)) as span:
            candidate_sets = self._scan_candidates(
                queries, theta, func, counters
            )
            span.attrs["candidates"] = sum(map(len, candidate_sets))
        return [
            self._evaluate_columnar(
                query, candidate_sets[qi], rule, counters, tracer,
            )
            for qi, query in enumerate(queries)
        ]

    # -- columnar hot path ---------------------------------------------
    def _scan_candidates(
        self,
        queries: Sequence[EncodedQuery],
        theta: float,
        func: SimilarityFunction,
        counters: Optional[Counters],
    ) -> List[Dict[int, int]]:
        """Each query's candidates and the query position of their first
        scanned prefix collision.

        Every query's prefix tokens in the fragments this index owns
        (:attr:`_owned`) are collected and sorted — ascending token id is
        ascending fragment, fragments being id ranges — so each distinct
        token's posting run is looked up *once* and walked for every query
        that probes it, and a candidate's recorded ``qpos`` is the
        position of the smallest scanned prefix token it holds, whether
        the query comes alone or in a batch: every scanned token below
        ``qpos`` missed it.

        **A candidate is a record that can still pass.**  Of each run the
        scan reads only the records whose length ``t`` lies in the query's
        window at that position, ``lo ≤ t ≤ edges[qpos]``
        (:func:`probe_window`): Lemma 1 admits nothing else, and a longer
        record would die at the merge's opening bound, its required
        overlap more than the ``known − qpos`` query tokens left.  Runs are
        in length order, so the window is two bisects.  ``edges`` never
        grows with ``qpos``, which keeps the scan exact: an in-window
        record was in the window at every earlier scanned hit too, so its
        recorded ``qpos`` is still its first scanned hit; a record outside
        the window at its first hit stays outside at every later one, and
        its first common token leaves too few query tokens for τ.  The
        argument is per slice, so the claim rule below is unchanged.

        The scan cedes nothing.  Slices that own different fragments of
        one prefix may both list a candidate, each at its own first hit:
        the union of their candidate sets and the *smallest* ``qpos`` per
        candidate are the full index's, and which slice reports a pair is
        decided on the hit, in :meth:`_evaluate_columnar`.

        The scan reads and never seals.  :meth:`FragmentPostings.window`
        applies the same length test to whatever :meth:`apply_batch` has
        staged since the last seal — so candidate dicts, counters and hits
        are those of the sealed index, and a probe costs a writer nothing.
        """
        probes: List[Tuple[int, int, int, int, int, int]] = []
        owned = self._owned
        for qi, query in enumerate(queries):
            q_ids = query.ranks
            if not q_ids:
                continue
            lo, edges, _taus = probe_window(func, theta, query.size,
                                            len(q_ids))
            for v, start, end in self.partitioner.split_bounds(
                    q_ids[:len(edges)]):
                if owned is not None and v not in owned:
                    continue
                for qpos in range(start, end):
                    probes.append((q_ids[qpos], qi, qpos, v, lo, edges[qpos]))
        # Ascending (token, query): fragment by fragment, token by token.
        probes.sort()
        ranks = self._ranks

        def length_of(rid: int) -> int:
            return len(ranks[rid])

        candidate_sets: List[Dict[int, int]] = [{} for _ in queries]
        lookups = 0
        scanned_token = -1
        for token, qi, qpos, v, lo, hi in probes:
            if token != scanned_token:
                scanned_token = token
                lookups += 1
            if hi < lo:
                continue
            candidates = candidate_sets[qi]
            for rid in self._postings[v].window(token, lo, hi, length_of):
                if rid not in candidates:
                    candidates[rid] = qpos
        _bump(counters, "posting_lookups", lookups)
        return candidate_sets

    def _evaluate_columnar(
        self,
        query: EncodedQuery,
        candidates: Dict[int, int],
        rule: ThresholdRule,
        counters: Optional[Counters],
        tracer: Tracer,
    ) -> List[SearchHit]:
        """Verify one query's candidates from their first hit on, and
        claim the hits that are this index's to report.

        Every candidate already passes Lemma 1 (the scan's window), so a
        candidate costs at most one early-terminating merge against τ.
        Lemmas 2–4 bound a pair from one fragment because a filter-job
        reducer sees nothing else; here both full columns are at hand, and
        the merge's running bound (matches so far + shorter remaining
        suffix < τ) is the tightest positional bound there is, so nothing
        runs ahead of it.

        **The merge starts where the scan stopped**: at ``qpos`` in the
        query and ``tpos = bisect_left(t, q[qpos])`` in the candidate
        ``t``, which holds ``q[qpos]`` there.  The merge's bound ahead of
        its first comparison, ``min(|q| − qpos, |t| − tpos) < τ``, is then
        PPJoin's positional filter; its query half the window has already
        applied, so what reaches it dies there only by ``t``'s side.

        **The opening bound is checked before the merge.**  Most
        candidates die at it (about three in four on the harness's
        workloads), so it is asked here, with the ``tpos`` the merge is
        then started at: a pair that fails it is dropped without a merge
        call, exactly where the merge would have returned with no
        comparison — ``verify_token_comparisons`` is the same either way.

        **The verdict is asked only at τ.**  A merge that ends below τ
        (abandoned or complete) is a miss: τ is the smallest count that
        passes and the test is monotone in the count
        (:class:`~repro.similarity.thresholds.ThresholdRule`), so only a
        count of at least τ is scored.

        **The claim rule, on hits.**  A pair is reported by the slice that
        owns the fragment of its first common token (Theorem 1, across
        shards).  Every *scanned* token below ``qpos`` missed ``t``, so a
        token of ``q[:qpos]`` that ``t`` holds lies in another slice's
        fragment, that slice's first hit is earlier and it reports the
        pair; here the pair is ceded (``ceded_candidates``).  Only pairs
        that pass τ are asked, and a full index (``_owned is None``) or a
        first hit at ``qpos == 0`` has nothing to ask.

        Exactness.  For a claimed pair — and every pair of a full index —
        nothing is common below ``(qpos, tpos)``: ``q[:qpos]`` misses
        ``t`` and ``t[:tpos]`` lies below ``q[qpos]``.  The count from
        there is the whole overlap and the bound is valid at every step.
        For a pair another slice claims the count is an underestimate, so
        the pair either fails τ here or passes and is ceded by the check:
        per-slice hit lists are those of a scan that cedes up front.

        Unknown query tokens only enlarge ``|q|``.  ``rule`` is the probe's
        ``(func, θ)``, resolved once by :meth:`probe_batch`.  τ is read from
        the row :func:`probe_window` computed for the scan: every candidate
        has ``lo ≤ t ≤ edges[qpos]`` and ``edges[qpos] < lo + len(taus)``,
        so ``taus[t − lo]`` is τ(|q|, t) for each one.  Counters accumulate
        in locals and flush once per probe.
        """
        _bump(counters, "probes", 1)
        if not candidates:
            return []
        q_ranks = query.ranks
        n_known = len(q_ranks)
        size_q = query.size
        lo, _edges, taus = probe_window(rule.func, rule.theta, size_q, n_known)
        ranks_of = self._ranks
        merge = bounded_merge_intersection
        sliced = self._owned is not None
        hits: List[SearchHit] = []
        n_verify_cmp = n_ceded = 0
        with tracer.span("verification", phase="service",
                         candidates=len(candidates)):
            for rid, qpos in candidates.items():
                t_ranks = ranks_of[rid]
                size_t = len(t_ranks)
                tau = taus[size_t - lo]
                tpos = bisect_left(t_ranks, q_ranks[qpos])
                rest_q = n_known - qpos
                rest_t = size_t - tpos
                if (rest_q if rest_q < rest_t else rest_t) < tau:
                    continue
                common, comparisons, _completed = merge(
                    q_ranks, t_ranks, tau, qpos, tpos
                )
                n_verify_cmp += comparisons
                if common < tau:
                    continue
                score = rule.verdict(common, size_q, size_t)
                if score is None:
                    continue
                if sliced and qpos and _any_rank_present(
                        q_ranks[:qpos], t_ranks):
                    n_ceded += 1
                else:
                    hits.append(SearchHit(rid, score))
        _bump(counters, "candidates", len(candidates))
        _bump(counters, "verify_token_comparisons", n_verify_cmp)
        _bump(counters, "ceded_candidates", n_ceded)
        _bump(counters, "results", len(hits))
        hits.sort(key=lambda hit: (-hit.score, hit.rid))
        return hits

    # -- persistence (snapshot v6 payload) ------------------------------
    def __getstate__(self):
        self._seal()
        state = dict(self.__dict__)
        # Rebuilt on load: the vocab shares the order object, and the
        # rest is derived state.
        for name in ("vocab", "_resort"):
            state.pop(name, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.vocab = TokenVocab(self.order)
        self._init_transient()


def checked_probe_args(
    theta: float, func, k: Optional[int] = None
) -> SimilarityFunction:
    """A probe's ``func`` as the enum, its θ in ``(0, 1]`` and its ``k``
    (``None`` or ≥ 1), or a typed :class:`ConfigError` — decided before
    the queries are looked at, so an empty batch and an empty query are
    judged like any other."""
    try:
        func = SimilarityFunction(func)
    except ValueError:
        raise ConfigError(f"unknown similarity function {func!r}") from None
    check_threshold(theta)
    if k is not None and k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return func


@lru_cache(maxsize=WINDOW_MEMO)
def probe_window(
    func: SimilarityFunction, theta: float, size: int, known: int
) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """The record lengths a query of ``size`` tokens, ``known`` of them in
    the vocabulary, can be answered by, and their τ: ``(lo, edges, taus)``.

    ``len(edges)`` is the prefix the scan probes; a record of length ``t``
    first hit at prefix position ``qpos`` is a candidate iff ``lo ≤ t ≤
    edges[qpos]``.  ``[lo, top]`` is what Lemma 1 admits, from the
    predicate the evaluation used — ``min(|q|, t) ≥ length_lower_bound(
    max(|q|, t))`` — so its edges are exactly the evaluation's.
    ``edges[qpos]`` is the largest ``t ≤ top`` whose required overlap
    ``τ(|q|, t)`` fits in the ``known − qpos`` query tokens from the hit
    on (``lo − 1``, an empty window, when none does): any longer record
    fails the merge's opening bound, and ``τ`` never falls as ``t`` grows,
    so ``edges`` never grows with ``qpos``.  ``taus[i]`` is ``τ(|q|, lo +
    i)`` for every length below the first whose τ exceeds ``known``, so it
    covers ``lo ≤ t ≤ edges[0]``.

    A pure function of its arguments, so it is memoized once per process
    (an LRU of :data:`WINDOW_MEMO` shapes, ``probe_window.cache_info()``):
    every index, slice, memtable and generation shares the windows one of
    them computed.
    """
    tau_of = threshold_rule(func, theta).tau
    lo = length_lower_bound(func, theta, size)
    top = length_upper_bound(func, theta, size)
    while length_lower_bound(func, theta, top + 1) <= size:
        top += 1
    while length_lower_bound(func, theta, top) > size:
        top -= 1
    # τ for lo, lo + 1, …: no room is larger than ``known``, so stop there.
    taus = tuple(takewhile(
        lambda tau: tau <= known,
        (tau_of(size, t) for t in range(lo, top + 1)),
    ))
    limit = min(prefix_length(func, theta, size), known)
    return lo, tuple(
        lo - 1 + bisect_right(taus, known - qpos) for qpos in range(limit)
    ), taus


def differing_fragments(a: Dict[int, str], b: Dict[int, str]) -> List[int]:
    """The fragments on which two :meth:`SegmentIndex.content_digests` maps
    disagree (one side missing counts), ascending; empty when equal."""
    return sorted(v for v in a.keys() | b.keys() if a.get(v) != b.get(v))


def _any_rank_present(ranks: Sequence[int], t_ranks: Sequence[int]) -> bool:
    """True if any of ``ranks`` occurs in the sorted id column ``t_ranks``."""
    for rank in ranks:
        i = bisect_left(t_ranks, rank)
        if i < len(t_ranks) and t_ranks[i] == rank:
            return True
    return False


def _bump(counters: Optional[Counters], name: str, amount: int) -> None:
    if counters is not None and amount:
        counters.increment(PROBE_GROUP, name, amount)
