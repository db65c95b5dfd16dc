"""In-memory AllPairs [Bayardo, Ma, Srikant].

The ancestor of PPJoin: prefix index plus length filter, but *no*
positional and no suffix filtering — every prefix collision between
length-compatible records becomes a candidate and is verified.  Included as
the weakest member of the in-memory family so the filter lineage
(AllPairs → PPJoin → PPJoin+) can be measured (the ``ext_inmemory`` entry
of ``benchmarks/paper.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.baselines.ppjoin import EncodedRecord, JoinStats
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import length_lower_bound, prefix_length
from repro.similarity.verify import verify_pair


def allpairs(
    encoded: Sequence[EncodedRecord],
    theta: float,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    stats: Optional[JoinStats] = None,
) -> Dict[Tuple[int, int], float]:
    """AllPairs self-join over rank-encoded records."""
    func = SimilarityFunction(func)
    items = sorted(encoded, key=lambda item: (len(item[1]), item[0]))
    index: Dict[int, list] = {}
    results: Dict[Tuple[int, int], float] = {}
    for item_index, (rid, tokens) in enumerate(items):
        size = len(tokens)
        if size == 0:
            continue
        probe_len = min(size, prefix_length(func, theta, size))
        min_partner = length_lower_bound(func, theta, size)
        candidates = set()
        for position in range(probe_len):
            for other_index in index.get(tokens[position], ()):
                if stats is not None:
                    stats.probe_hits += 1
                candidates.add(other_index)
        for other_index in candidates:
            other_rid, other_tokens = items[other_index]
            other_size = len(other_tokens)
            if other_size < min_partner:
                continue
            if stats is not None:
                stats.candidates += 1
                stats.verifications += 1
            score = verify_pair(tokens, other_tokens, theta, func, sorted_input=True)
            if score is not None:
                key = (rid, other_rid) if rid < other_rid else (other_rid, rid)
                results[key] = score
                if stats is not None:
                    stats.results += 1
        for position in range(probe_len):
            index.setdefault(tokens[position], []).append(item_index)
    return results

