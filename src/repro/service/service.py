"""The online similarity service: cached, batched probes over a SegmentIndex.

:class:`SimilarityService` is the serving-layer entry point:

* ``search(tokens, theta, k=None)`` — one exact probe, LRU-cached by
  ``(canonical token tuple, θ, func)``; a batch of one through the same
  private path (``_serve``) as
* ``search_batch(queries, theta, ...)`` — deduplicates the batch, serves
  repeats from one computation, and probes the distinct misses in one
  ``probe_batch``;
* ``apply_batch(new_records)`` — extends the index in place (and
  invalidates the cache);
* ``save``/``load`` — versioned snapshot round-trip via
  :mod:`repro.service.snapshot`.

All work is accounted in ``service.metrics`` (a
:class:`~repro.mapreduce.counters.Counters`): ``service.cache`` tracks
hits/misses/evictions/invalidations, ``service.probe`` tracks posting
lookups, candidates, length prunes and token comparisons — the
quantities ``benchmarks/bench_ext_query_service.py`` asserts on.  On top
of the counters, every request feeds a :class:`LatencyHistogram`
(``latency_info()`` → p50/p95/p99) and, when the service is built with an
enabled :class:`~repro.observability.tracer.Tracer`, per-probe spans
covering cache lookup, prefix filter and verification.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.data.records import Record, RecordCollection
from repro.errors import DataError, DeadlineExceededError
from repro.mapreduce.counters import Counters
from repro.observability.histogram import LatencyHistogram
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.service.cache import LRUCache
from repro.service.index import (
    QueryKey,
    SearchHit,
    SegmentIndex,
    checked_probe_args,
    query_key,
    view_hits,
)
from repro.service.snapshot import load_index, save_index
from repro.similarity.functions import SimilarityFunction

CACHE_GROUP = "service.cache"


class SimilarityService:
    """Serve exact similarity-search queries over an indexed corpus."""

    def __init__(
        self,
        index: SegmentIndex,
        cache_size: int = 1024,
        tracer: Optional[Tracer] = None,
        clock=time.monotonic,
    ) -> None:
        """``cache_size=0`` disables the result cache.  ``tracer``
        (default: the free no-op tracer) records one ``probe``/``batch``
        span per request with ``cache-lookup``, ``prefix-filter`` and
        ``verification`` children; results are bit-identical with tracing
        on or off."""
        self.index = index
        self.metrics = Counters()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.latency = LatencyHistogram()
        self._cache: LRUCache[List[SearchHit]] = LRUCache(cache_size)
        #: injectable so deadline tests (and chaos replays) control time.
        self._clock = clock

    # -- serving -------------------------------------------------------
    def search(
        self,
        tokens: Iterable[str],
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        exclude: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> List[SearchHit]:
        """All indexed records with ``sim(query, record) ≥ θ``, best first.

        A batch of one through :meth:`_serve`.  ``k`` truncates the (fully
        computed and cached) result list; ``exclude`` drops one record id —
        pass the query's own id when probing by an indexed record.
        ``deadline`` bounds the request in seconds on the service clock: a
        probe that runs past it raises a typed
        :class:`DeadlineExceededError` (the answer is discarded — a client
        that stopped waiting must not receive a late result, and the
        overrun is visible in ``service.deadline`` counters).
        """
        (hits,), _misses = self._serve("probe", [tokens], theta, func,
                                       deadline)
        return view_hits(hits, k, exclude)

    def search_rid(
        self,
        rid: int,
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
    ) -> List[SearchHit]:
        """Partners of an already-indexed record (itself excluded)."""
        return self.search(
            self.index.tokens_of(rid), theta, k=k, func=func, exclude=rid
        )

    def search_batch(
        self,
        queries: Sequence[Iterable[str]],
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        exclude: Optional[Sequence[Optional[int]]] = None,
        deadline: Optional[float] = None,
    ) -> List[List[SearchHit]]:
        """Probe many queries at once; results align with ``queries``.

        The batch is canonicalized and deduplicated first (repeated
        queries — the common case under real traffic — are computed once),
        then cache-checked, and only the distinct misses hit the index,
        in one ``probe_batch`` with posting scans grouped per fragment.
        ``exclude`` is a per-query sequence of record ids to drop from the
        corresponding result (``None`` entries skip) — the batched twin of
        :meth:`search`'s ``exclude``, applied after the shared computation
        so duplicates still coalesce.
        """
        if exclude is not None and len(exclude) != len(queries):
            raise DataError(
                f"exclude must align with queries: got {len(exclude)} "
                f"entries for {len(queries)} queries"
            )
        self.metrics.increment("service.batch", "batches")
        self.metrics.increment("service.batch", "queries", len(queries))
        results, misses = self._serve("batch", queries, theta, func,
                                      deadline)
        self.metrics.increment("service.batch", "unique_misses", misses)
        return [
            view_hits(hits, k, exclude[i] if exclude is not None else None)
            for i, hits in enumerate(results)
        ]

    def _serve(
        self,
        span_name: str,
        queries: Sequence[Iterable[str]],
        theta: float,
        func: SimilarityFunction,
        deadline: Optional[float],
    ) -> Tuple[List[List[SearchHit]], int]:
        """Every request's one way to the index: canonicalize, dedupe,
        cache-check, probe the distinct misses in one ``probe_batch``.

        Returns the shared (uncopied, unviewed) hit list of each query
        and the number of distinct misses.
        """
        func = checked_probe_args(theta, func)
        # Latency is recorded on the same injectable clock the deadline
        # checks read — one clock per service — so injected (chaos)
        # latency shows up in ``latency_info()``, and a request that is
        # abandoned at its deadline is still an observation (overload
        # percentiles must include the requests that failed).
        started = self._clock()
        deadline_at = None if deadline is None else started + deadline
        try:
            self._check_deadline(deadline_at)
            with self.tracer.span(
                span_name, phase="service", theta=theta, func=func.value,
                queries=len(queries),
            ) as span:
                keys = [query_key(tokens, theta, func) for tokens in queries]
                resolved: Dict[QueryKey, List[SearchHit]] = {}
                misses: List[QueryKey] = []
                with self.tracer.span("cache-lookup", phase="service"):
                    for key in keys:
                        if key in resolved:
                            continue
                        hits = self._cache.get(key)
                        if hits is None:
                            self.metrics.increment(CACHE_GROUP, "misses")
                            misses.append(key)
                            resolved[key] = []  # placeholder; filled below
                        else:
                            self.metrics.increment(CACHE_GROUP, "hits")
                            resolved[key] = hits
                span.attrs["unique_misses"] = len(misses)
                span.attrs["cache"] = "miss" if misses else "hit"
                if misses:
                    encoded = [self.index.encode_query(key[0])
                               for key in misses]
                    answers = self.index.probe_batch(
                        encoded, theta, func, self.metrics, tracer=self.tracer
                    )
                    for key, hits in zip(misses, answers):
                        resolved[key] = hits
                        self._put(key, hits)
            self._check_deadline(deadline_at)
        finally:
            self.latency.record(self._clock() - started)
        return [resolved[key] for key in keys], len(misses)

    # -- maintenance ---------------------------------------------------
    def apply_batch(
        self, new_records: Union[RecordCollection, Iterable[Record]]
    ) -> int:
        """Extend the index with new records; invalidates the result cache.

        Raises :class:`~repro.errors.DataError` on duplicate record ids
        (before any mutation), exactly like
        :meth:`SegmentIndex.apply_batch`.
        """
        added = self.index.apply_batch(new_records)
        if len(self._cache):
            self.metrics.increment(CACHE_GROUP, "invalidations", len(self._cache))
        self._cache.clear()
        return added

    # -- persistence ---------------------------------------------------
    def save(self, path: Union[str, Path]) -> int:
        """Snapshot the underlying index (cache and metrics are ephemeral).

        A streaming index (:class:`~repro.ingest.streaming.StreamingIndex`)
        is materialized to a single union ``SegmentIndex`` first — its own
        durability lives in the WAL + manifest, and a snapshot must stay
        loadable by plain ``repro search``.
        """
        index = self.index
        if hasattr(index, "to_segment_index"):
            index = index.to_segment_index()
        return save_index(index, path)

    @classmethod
    def load(cls, path: Union[str, Path], **options) -> "SimilarityService":
        """Build a service over a snapshot written by :meth:`save`;
        ``options`` are the constructor's, declared there."""
        return cls(load_index(path), **options)

    # -- introspection -------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size/capacity snapshot of the result cache."""
        cache_counters = self.metrics.group(CACHE_GROUP)
        return {
            "hits": cache_counters.get("hits", 0),
            "misses": cache_counters.get("misses", 0),
            "evictions": self._cache.evictions,
            "size": len(self._cache),
            "capacity": self._cache.capacity,
        }

    def latency_info(self) -> Dict[str, Union[int, float]]:
        """Request-latency percentiles (one observation per ``search`` or
        ``search_batch`` call, cache hits included), ``cache_info``-style."""
        return self.latency.snapshot()

    # -- internals -----------------------------------------------------
    def _check_deadline(self, deadline_at: Optional[float]) -> None:
        if deadline_at is not None and self._clock() >= deadline_at:
            self.metrics.increment("service.deadline", "exceeded")
            raise DeadlineExceededError(
                "service request ran past its deadline; result abandoned"
            )

    def _put(self, key: QueryKey, hits: List[SearchHit]) -> None:
        before = self._cache.evictions
        self._cache.put(key, hits)
        evicted = self._cache.evictions - before
        if evicted:
            self.metrics.increment(CACHE_GROUP, "evictions", evicted)
