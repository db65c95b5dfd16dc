"""The verification MapReduce job (paper Section V-B).

Input: the filter job's stripes, ``owner → (len_owner, rid_t, len_t,
common, rid_t, len_t, common, …)`` — one per probing segment, keyed by the
record that owns every pair inside it (``core/joins.py``).  A pair has one
owner wherever it was counted, so all of its partial counts meet in that
owner's reduce group: the reducer sums them per partner (a map-side
combiner already merges one owner's stripes within a map task) and derives
the exact similarity from the total count and the two record sizes —
FS-Join never touches the original strings again.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.mapreduce.job import JobContext, MapReduceJob
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import ThresholdRule, threshold_rule

Stripe = Tuple[int, ...]  # (len_owner, rid_t, len_t, common, ...)


def merge_stripes(stripes: List[Stripe]) -> Tuple[Dict[int, int], Dict[int, int]]:
    """One owner's stripes as ``(partner → its length, partner → summed
    common count)``."""
    lens: Dict[int, int] = {}
    totals: Dict[int, int] = {}
    for stripe in stripes:
        rids = stripe[1::3]
        lens.update(zip(rids, stripe[2::3]))
        for rid, common in zip(rids, stripe[3::3]):
            totals[rid] = totals.get(rid, 0) + common
    return lens, totals


def verify_stripes(
    rule: ThresholdRule,
    owner: Any,
    stripes: List[Stripe],
    cross_side: bool = False,
) -> Tuple[int, List[Tuple[Tuple[int, int], float]]]:
    """Sum one owner's partial counts per partner and threshold-test each
    with the job's resolved ``(func, θ)`` rule.

    Returns the number of candidate pairs and ``((rid_left, rid_right),
    score)`` for those with ``sim ≥ θ``.  A self-join's owner is a record
    id and the key is ``(rid_small, rid_large)``; under ``cross_side`` (an
    R-S join) the owner is ``(side, rid)``, every partner is from the other
    collection, and the left collection (side 0) comes first.
    """
    len_owner = stripes[0][0]
    lens, totals = merge_stripes(stripes)
    side, owner = owner if cross_side else (0, owner)
    verdict = rule.verdict
    results = []
    for rid, total in totals.items():
        # Shared verification rule (Section V-B) — the same threshold rule
        # the in-memory verifiers and the serving probe use, applied to the
        # aggregated count (the token comparisons themselves were already
        # saved in the filter job's bounded merges).
        score = verdict(total, len_owner, lens[rid])
        if score is not None:
            owner_first = side == 0 if cross_side else owner <= rid
            results.append(((owner, rid) if owner_first else (rid, owner), score))
    return len(totals), results


class VerificationJob(MapReduceJob):
    """Aggregate partial counts and apply the exact threshold test."""

    name = "fsjoin-verify"

    def __init__(
        self, theta: float, func: SimilarityFunction, cross_side: bool = False
    ) -> None:
        #: ``(func, θ)`` validated and resolved once; pickles as the pair.
        self.rule = threshold_rule(func, theta)
        self.cross_side = cross_side

    def combine(self, key, values: List[Stripe], context: JobContext):
        if len(values) == 1:
            return None
        lens, totals = merge_stripes(values)
        merged = [values[0][0]]
        for rid, total in totals.items():
            merged += (rid, lens[rid], total)
        return [(key, tuple(merged))]

    def reduce(
        self, key, values: List[Stripe], emit, context: JobContext
    ) -> None:
        candidates, results = verify_stripes(
            self.rule, key, values, self.cross_side
        )
        context.increment("fsjoin.verify", "candidates", candidates)
        if results:
            context.increment("fsjoin.verify", "results", len(results))
        for pair, score in results:
            emit(pair, score)
