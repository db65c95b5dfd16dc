"""Per-fragment join algorithms (paper Section V-A "Join Algorithms").

A fragment is the list of segments shuffled to one reducer.  The join's
task is to produce, for every pair of segments with common tokens that
survives the filters, the exact number of common tokens in this fragment.

**One order.**  :func:`join_fragment` first sorts the fragment by
``(str_len, side, rid)`` — the order the in-memory PPJoin uses — and every
segment then *probes* only segments before it.  That one order does three
jobs:

* *Lemma 1 is a window.*  The probing segment is the longer of any pair,
  so StrL admits exactly the earlier segments at or past
  ``bisect_left(lens, min_partner_len(|s|))``; the pairs below that index
  are never enumerated (``pruned_strl`` counts them: a property of the
  fragment, the same for all three algorithms).
* *The horizontal boundary rule is a window.*  A boundary partition joins
  only pairs with ``|t| < pivot ≤ |s|``: the segments below
  ``bisect_left(lens, pivot)`` are only ever partners, those at or above
  it only ever probe.
* *The probing record owns the pair.*  The order compares two records by
  fields every one of their segments carries, so a pair has the same owner
  in every fragment and horizontal partition it meets in.  The join
  therefore returns one **stripe** per probing segment — ``owner →
  (len_owner, rid_t, len_t, common, rid_t, len_t, common, …)``, a flat
  int tuple — instead of one record per pair, and the verification job
  sums a pair's partial counts inside its owner's group.  The owner key
  is the record id; under ``cross_side`` (an R-S join, where ids repeat
  across collections) it is ``(side, rid)``, and the verification job is
  told so rather than left to guess from the key.

Three ways of finding a probing segment's partners, as in the paper:

* **Loop join** — every segment in the window; intersections by linear
  merge (tokens are sorted ranks).
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

Posting lists hold ascending segment indices, so the window is one C
``bisect`` per list.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.config import FilterConfig, JoinMethod
from repro.core.filters import FragmentFilters
from repro.core.partitioning import Segment
from repro.mapreduce.job import JobContext
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import prefix_length
from repro.similarity.verify import bounded_merge_intersection

#: ``(owner, (len_owner, rid_t, len_t, common, …))`` — see the module docstring.
KeyedStripe = Tuple[Any, Tuple[int, ...]]

#: One probing segment's turn: its index, and ``(earlier index, exact
#: intersection or None when it is still to be merged)`` per partner found.
Probe = Tuple[int, Iterable[Tuple[int, Optional[int]]]]

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
    "stripes_emitted",
)


def join_fragment(
    segments: List[Segment],
    method: JoinMethod,
    theta: float,
    func: SimilarityFunction,
    filter_config: FilterConfig,
    context: Optional[JobContext] = None,
    pivot: Optional[int] = None,
    cross_side: bool = False,
) -> List[KeyedStripe]:
    """Join one fragment's segments; return the surviving partial counts
    as one stripe per probing segment that kept a partner.

    ``pivot`` is the length pivot of a horizontal boundary partition (only
    pairs straddling it are joined); ``cross_side`` restricts an R-S join
    to pairs from different collections.  The ``fsjoin.filter`` counters
    are tallied locally and added to ``context`` once, after the fragment
    is joined: ``pairs_considered`` counts the pairs the filter battery ran
    on, ``candidates_emitted`` the pairs inside the ``stripes_emitted``
    records returned.
    """
    method = JoinMethod(method)
    filters = FragmentFilters(theta, func, filter_config)
    counts = dict.fromkeys(_COUNTER_NAMES, 0)
    segments = sorted(
        segments, key=lambda s: (s.info.str_len, s.info.side, s.info.rid)
    )
    lens = [segment.info.str_len for segment in segments]
    # Segments [0, split) are partners, [first_probe, n) probe; without a
    # pivot every segment is both.
    split = len(segments) if pivot is None else bisect_left(lens, pivot)
    first_probe = 0 if pivot is None else split
    window_start = {
        length: bisect_left(lens, filters.min_partner_len(length))
        for length in set(lens)
    }
    starts = [window_start[length] for length in lens]
    if cross_side:
        # right_before[k]: side-1 segments among the first k.
        right_before = list(
            accumulate((s.info.side for s in segments), initial=0)
        )
    if method is JoinMethod.LOOP:
        probes = _loop_probes(starts, first_probe, split)
    elif method is JoinMethod.INDEX:
        probes = _index_probes(segments, starts, first_probe, split)
    else:
        prefix_of = {
            length: prefix_length(func, theta, length) for length in set(lens)
        }
        probes = _index_probes(segments, starts, first_probe, split, prefix_of)
    stripes: List[KeyedStripe] = []
    for current, partners in probes:
        segment = segments[current]
        info = segment.info
        side = info.side
        skipped = min(starts[current], split)
        if cross_side:
            skipped = (
                right_before[skipped] if side == 0
                else skipped - right_before[skipped]
            )
        counts["pruned_strl"] += skipped
        stripe = [info.str_len]
        for earlier, common in partners:
            other = segments[earlier]
            if cross_side and other.info.side == side:
                continue
            common = _surviving_common(segment, other, filters, counts, common)
            if common:
                stripe += (other.info.rid, other.info.str_len, common)
        if len(stripe) > 1:
            counts["candidates_emitted"] += len(stripe) // 3
            stripes.append(
                ((side, info.rid) if cross_side else info.rid, tuple(stripe))
            )
    counts["stripes_emitted"] = len(stripes)
    if context is not None:
        for name, amount in counts.items():
            if amount:
                context.increment(_COUNTER_GROUP, name, amount)
    return stripes


def _surviving_common(
    seg_a: Segment,
    seg_b: Segment,
    filters: FragmentFilters,
    counts: Dict[str, int],
    common: Optional[int],
) -> int:
    """Run the filter battery on one segment pair; its exact intersection
    if the pair survives, else 0."""
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
                return 0
        if common == 0:
            counts["disjoint_segments"] += 1
            return 0
        pruned = filters.verdict(common, segi_min, segd_min)
    if pruned is not None:
        counts["pruned_" + pruned] += 1
        return 0
    return common


def _loop_probes(
    starts: List[int], first_probe: int, split: int
) -> Iterator[Probe]:
    for current in range(first_probe, len(starts)):
        window = range(starts[current], min(current, split))
        yield current, zip(window, repeat(None))


def _index_probes(
    segments: List[Segment],
    starts: List[int],
    first_probe: int,
    split: int,
    prefix_of: Optional[Dict[int, int]] = None,
) -> Iterator[Probe]:
    """The index join; given ``prefix_of`` (record length → safe prefix
    length) the prefix join, which indexes and probes only that many of a
    segment's tokens and leaves the intersections to the merge."""
    # token rank -> ascending indices of earlier segments containing it.
    inverted: Dict[int, List[int]] = {}
    for current, segment in enumerate(segments):
        tokens = segment.tokens
        if prefix_of is not None:
            tokens = tokens[: prefix_of[segment.info.str_len]]
        if current >= first_probe:
            # Probing every token of the current segment against the index
            # of the earlier segments yields each one's exact intersection
            # count in one pass.
            start = starts[current]
            hits: Dict[int, int] = {}
            for token in tokens:
                postings = inverted.get(token)
                if postings:
                    for earlier in postings[bisect_left(postings, start):]:
                        hits[earlier] = hits.get(earlier, 0) + 1
            yield current, (
                hits.items() if prefix_of is None else zip(hits, repeat(None))
            )
        if current < split:
            for token in tokens:
                inverted.setdefault(token, []).append(current)
