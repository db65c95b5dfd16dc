"""Per-fragment join algorithms (paper Section V-A "Join Algorithms").

A fragment is the list of segments shuffled to one reducer.  The join's
task is to produce, for every pair of segments with common tokens that
survives the filters, the exact number of common tokens in this fragment.

Three implementations, as in the paper:

* **Loop join** — compare every segment pair; intersections by linear merge
  (tokens are sorted ranks).
* **Index join** — index *all* tokens of already-seen segments; probing a
  segment's tokens yields each earlier segment's exact intersection count
  directly, so only intersecting pairs are ever touched.
* **Prefix(-based index) join** — index and probe only segment *prefixes*.
  The safe segment-prefix length is ``min(|seg|, |s| − τ_min(|s|) + 1)``
  where ``τ_min`` is the minimum required overlap against any admissible
  partner (see DESIGN.md §4.1): if ``sim(s,t) ≥ θ`` the two segments are
  guaranteed to collide on a prefix token in every fragment where a similar
  pair must be counted, so the aggregated counts stay exact for every
  reported result.  Candidate pairs found by prefix collision still get
  their exact intersection via a merge of the full segments.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import FilterConfig, JoinMethod
from repro.core.filters import FragmentFilters
from repro.core.partitioning import Segment
from repro.mapreduce.job import JobContext
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import prefix_length
from repro.similarity.verify import bounded_merge_intersection

#: emit_pair(rid_s, len_s, rid_t, len_t, common_in_fragment)
EmitPair = Callable[[int, int, int, int, int], None]

#: Optional pair gate used by horizontal boundary partitions.
PairPredicate = Callable[[Segment, Segment], bool]

_COUNTER_GROUP = "fsjoin.filter"
_COUNTER_NAMES = (
    "pairs_considered",
    "pruned_strl",
    "pruned_segl",
    "verify_token_comparisons",
    "pruned_overlap_bound",
    "disjoint_segments",
    "pruned_segi",
    "pruned_segd",
    "candidates_emitted",
)


def join_fragment(
    segments: List[Segment],
    method: JoinMethod,
    theta: float,
    func: SimilarityFunction,
    filter_config: FilterConfig,
    emit_pair: EmitPair,
    context: Optional[JobContext] = None,
    pair_allowed: Optional[PairPredicate] = None,
) -> None:
    """Join one fragment's segments and emit surviving partial counts.

    The ``fsjoin.filter`` counters are tallied locally and added to
    ``context`` once, after the fragment is joined.
    """
    method = JoinMethod(method)
    filters = FragmentFilters(theta, func, filter_config)
    counts = dict.fromkeys(_COUNTER_NAMES, 0)
    if method is JoinMethod.LOOP:
        _loop_join(segments, filters, emit_pair, counts, pair_allowed)
    elif method is JoinMethod.INDEX:
        _index_join(segments, filters, emit_pair, counts, pair_allowed)
    else:
        _prefix_join(
            segments, filters, theta, func, emit_pair, counts, pair_allowed
        )
    if context is not None:
        for name, amount in counts.items():
            if amount:
                context.increment(_COUNTER_GROUP, name, amount)


def _consider_pair(
    seg_a: Segment,
    seg_b: Segment,
    filters: FragmentFilters,
    emit_pair: EmitPair,
    counts: Dict[str, int],
    common: Optional[int] = None,
) -> None:
    """Run the filter battery on one segment pair and emit if it survives."""
    counts["pairs_considered"] += 1
    pruned, segi_min, segd_min = filters.bounds(seg_a, seg_b)
    if pruned is None:
        if common is None:
            # Early-termination merge: abandon as soon as the remaining
            # suffixes cannot reach the smallest intersection the
            # post-intersection filters would keep; an abandoned pair was
            # doomed either way.
            required = (
                filters.min_required_common(segi_min, segd_min)
                if filters.config.early_verify
                else 1
            )
            common, comparisons, completed = bounded_merge_intersection(
                seg_a.tokens, seg_b.tokens, required
            )
            counts["verify_token_comparisons"] += comparisons
            if not completed:
                counts["pruned_overlap_bound"] += 1
                return
        if common == 0:
            counts["disjoint_segments"] += 1
            return
        pruned = filters.verdict(common, segi_min, segd_min)
    if pruned is not None:
        counts["pruned_" + pruned] += 1
        return
    counts["candidates_emitted"] += 1
    info_a, info_b = seg_a.info, seg_b.info
    # Self-joins order pairs by rid; R-S joins put the left collection
    # (side 0) first so the output key is always (rid_left, rid_right).
    if info_a.side != info_b.side:
        first_comes_a = info_a.side < info_b.side
    else:
        first_comes_a = info_a.rid <= info_b.rid
    if first_comes_a:
        emit_pair(info_a.rid, info_a.str_len, info_b.rid, info_b.str_len, common)
    else:
        emit_pair(info_b.rid, info_b.str_len, info_a.rid, info_a.str_len, common)


def _loop_join(
    segments: List[Segment],
    filters: FragmentFilters,
    emit_pair: EmitPair,
    counts: Dict[str, int],
    pair_allowed: Optional[PairPredicate],
) -> None:
    n = len(segments)
    for i in range(n):
        seg_a = segments[i]
        for j in range(i + 1, n):
            seg_b = segments[j]
            if pair_allowed is not None and not pair_allowed(seg_a, seg_b):
                continue
            _consider_pair(seg_a, seg_b, filters, emit_pair, counts)


def _index_join(
    segments: List[Segment],
    filters: FragmentFilters,
    emit_pair: EmitPair,
    counts: Dict[str, int],
    pair_allowed: Optional[PairPredicate],
) -> None:
    # token rank -> indices of already-inserted segments containing it.
    inverted: Dict[int, List[int]] = {}
    for current_index, segment in enumerate(segments):
        # Probing every token of the current segment against the index of
        # all earlier segments yields each earlier segment's exact
        # intersection count in one pass.
        hits: Dict[int, int] = {}
        for token in segment.tokens:
            for earlier in inverted.get(token, ()):
                hits[earlier] = hits.get(earlier, 0) + 1
        for earlier, common in hits.items():
            other = segments[earlier]
            if pair_allowed is not None and not pair_allowed(segment, other):
                continue
            _consider_pair(segment, other, filters, emit_pair, counts, common)
        for token in segment.tokens:
            inverted.setdefault(token, []).append(current_index)


def _prefix_join(
    segments: List[Segment],
    filters: FragmentFilters,
    theta: float,
    func: SimilarityFunction,
    emit_pair: EmitPair,
    counts: Dict[str, int],
    pair_allowed: Optional[PairPredicate],
) -> None:
    prefix_lens = [
        min(len(segment), prefix_length(func, theta, segment.info.str_len))
        for segment in segments
    ]
    inverted: Dict[int, List[int]] = {}
    for current_index, segment in enumerate(segments):
        candidates: Dict[int, bool] = {}
        for token in segment.tokens[: prefix_lens[current_index]]:
            for earlier in inverted.get(token, ()):
                candidates[earlier] = True
        for earlier in candidates:
            other = segments[earlier]
            if pair_allowed is not None and not pair_allowed(segment, other):
                continue
            _consider_pair(segment, other, filters, emit_pair, counts)
        for token in segment.tokens[: prefix_lens[current_index]]:
            inverted.setdefault(token, []).append(current_index)
