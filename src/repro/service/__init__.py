"""The serving layer: online similarity search over a persistent index.

Everything the offline pipeline computes per join — global ordering,
Even-TF pivots, vertical segments, the filter lemmas — is reusable as a
standing index.  This package builds that index once
(:class:`~repro.service.index.SegmentIndex`), answers exact probe
queries over it (``probe`` / ``probe_batch``), and persists it with
versioned, atomically-swapped snapshots (:mod:`repro.service.snapshot`).
Requests are served by the cluster router
(:func:`repro.cluster.build_cluster`, one shard for one node) and, with
a result cache and request coalescing, the gateway in front of it.

Example:
    >>> from repro.data import make_corpus
    >>> from repro.service import SegmentIndex
    >>> records = make_corpus("wiki", 100, seed=7)
    >>> index = SegmentIndex.build(records, n_vertical=8)
    >>> hits = index.probe(records[0].tokens, theta=0.9)
    >>> hits[0].rid == records[0].rid  # the record itself, score 1.0
    True
"""

from repro.service.cache import LRUCache
from repro.service.columnar import FragmentPostings
from repro.service.index import EncodedQuery, SearchHit, SegmentIndex
from repro.service.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    load_index,
    save_index,
)
from repro.service.vocab import TokenVocab

__all__ = [
    "EncodedQuery",
    "FragmentPostings",
    "LRUCache",
    "SearchHit",
    "SegmentIndex",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "TokenVocab",
    "load_index",
    "save_index",
]
