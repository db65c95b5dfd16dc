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
  reported result.  A segment is *whole* when that prefix is all of it:
  a pair of whole segments takes the scan's hit count, exact as the index
  join's, and any other pair found by prefix collision gets its exact
  intersection from a merge of the full segments.  Which pairs are whole
  follows from θ, the function and the cuts; at the paper's 30 fragments
  on short records nearly all are, and the prefix join merges nothing.

The filter battery (Lemmas 2–4, ``core/filters.py``) runs inline in the
partner loop, over flat columns of the sorted fragment, with ``(func, θ)``
resolved once per fragment to a
:class:`~repro.similarity.thresholds.ThresholdRule`, ``τ`` memoised per
length pair and the counters kept in locals until the fragment is done.

Posting lists hold ascending segment indices, so the window is one C
``bisect`` per list.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.config import FilterConfig, JoinMethod
from repro.core.filters import min_partner_len
from repro.core.partitioning import Segment
from repro.mapreduce.job import JobContext
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import prefix_length, threshold_rule
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
    are tallied in locals and added to ``context`` once, after the fragment
    is joined: ``pairs_considered`` counts the pairs the filter battery ran
    on, ``candidates_emitted`` the pairs inside the ``stripes_emitted``
    records returned.
    """
    method = JoinMethod(method)
    func = SimilarityFunction(func)
    config = filter_config
    segments = sorted(
        segments, key=lambda s: (s.info.str_len, s.info.side, s.info.rid)
    )
    # Flat columns, built once: the partner loop reads these, never a
    # Segment or its info.
    infos = [segment.info for segment in segments]
    rids = [info.rid for info in infos]
    sides = [info.side for info in infos]
    lens = [info.str_len for info in infos]
    aheads = [info.ahead for info in infos]
    behinds = [info.behind for info in infos]
    tokens = [segment.tokens for segment in segments]
    sizes = [len(segment_tokens) for segment_tokens in tokens]
    # Segments [0, split) are partners, [first_probe, n) probe; without a
    # pivot every segment is both.
    split = len(segments) if pivot is None else bisect_left(lens, pivot)
    first_probe = 0 if pivot is None else split
    window_start = {
        length: bisect_left(lens, min_partner_len(config, func, theta, length))
        for length in set(lens)
    }
    starts = [window_start[length] for length in lens]
    if cross_side:
        # right_before[k]: side-1 segments among the first k.
        right_before = list(accumulate(sides, initial=0))
    if method is JoinMethod.LOOP:
        probes = _loop_probes(starts, first_probe, split)
    elif method is JoinMethod.INDEX:
        probes = _index_probes(tokens, starts, first_probe, split)
    else:
        prefix_of = {
            length: prefix_length(func, theta, length) for length in set(lens)
        }
        probes = _index_probes(
            tokens, starts, first_probe, split,
            [prefix_of[length] for length in lens],
        )
    segl, segi, segd = config.segl, config.segi, config.segd
    needs_tau = segl or segi or segd
    tau_of = threshold_rule(func, theta).tau
    early_verify = config.early_verify
    # record length -> partner length -> τ
    tau_rows: Dict[int, Dict[int, int]] = {}
    considered = pruned_strl = pruned_segl = comparisons = 0
    pruned_overlap_bound = disjoint = pruned_segi = pruned_segd = 0
    candidates = 0
    # Lemma 3's and Lemma 4's smallest surviving intersection: set for
    # every pair while its lemma is on, 0 (never prunes) while it is off.
    segi_min = segd_min = 0
    stripes: List[KeyedStripe] = []
    for current, partners in probes:
        side = sides[current]
        skipped = min(starts[current], split)
        if cross_side:
            skipped = (
                right_before[skipped] if side == 0
                else skipped - right_before[skipped]
            )
        pruned_strl += skipped
        len_s = lens[current]
        ahead_s, behind_s = aheads[current], behinds[current]
        size_s, tokens_s = sizes[current], tokens[current]
        taus = tau_rows.setdefault(len_s, {})
        stripe = [len_s]
        for earlier, common in partners:
            if cross_side and sides[earlier] == side:
                continue
            considered += 1
            if needs_tau:
                len_t = lens[earlier]
                tau = taus.get(len_t)
                if tau is None:
                    tau = taus[len_t] = tau_of(len_s, len_t)
                ahead_t, behind_t = aheads[earlier], behinds[earlier]
                size_t = sizes[earlier]
                # Lemmas 2 and 3 share one slack: what the segments
                # themselves must contribute once heads and tails overlap
                # as fully as they can.
                slack = (
                    tau
                    - (ahead_s if ahead_s < ahead_t else ahead_t)
                    - (behind_s if behind_s < behind_t else behind_t)
                )
                # Lemma 2: even a full overlap of the shorter segment falls
                # short.
                if segl and (size_s if size_s < size_t else size_t) < slack:
                    pruned_segl += 1
                    continue
                # Lemma 3 prunes when common < slack.
                if segi:
                    segi_min = slack
                if segd:
                    # Lemma 4 prunes when |seg_s| + |seg_t| − 2·common
                    # exceeds the symmetric-difference budget left after
                    # the unavoidable head/tail differences; i.e. the pair
                    # survives iff common ≥ ⌈(|seg_s| + |seg_t| − budget) / 2⌉.
                    budget = (
                        (len_s + len_t - 2 * tau)
                        - abs(ahead_s - ahead_t)
                        - abs(behind_s - behind_t)
                    )
                    segd_min = -((budget - size_s - size_t) // 2)
            if common is None:
                # Early-termination merge: abandon as soon as the remaining
                # suffixes cannot reach the smallest intersection Lemmas 3
                # and 4 would keep; an abandoned pair was doomed either way.
                common, spent, completed = bounded_merge_intersection(
                    tokens_s, tokens[earlier],
                    max(1, segi_min, segd_min) if early_verify else 1,
                )
                comparisons += spent
                if not completed:
                    pruned_overlap_bound += 1
                    continue
                if not common:
                    disjoint += 1
                    continue
            if common < segi_min:
                pruned_segi += 1
                continue
            if common < segd_min:
                pruned_segd += 1
                continue
            stripe += (rids[earlier], lens[earlier], common)
        if len(stripe) > 1:
            candidates += len(stripe) // 3
            stripes.append(
                ((side, rids[current]) if cross_side else rids[current],
                 tuple(stripe))
            )
    if context is not None:
        for name, amount in zip(_COUNTER_NAMES, (
            considered, pruned_strl, pruned_segl, comparisons,
            pruned_overlap_bound, disjoint, pruned_segi, pruned_segd,
            candidates, len(stripes),
        )):
            if amount:
                context.increment(_COUNTER_GROUP, name, amount)
    return stripes


def _loop_probes(
    starts: List[int], first_probe: int, split: int
) -> Iterator[Probe]:
    for current in range(first_probe, len(starts)):
        window = range(starts[current], min(current, split))
        yield current, zip(window, repeat(None))


def _index_probes(
    tokens: List[Tuple[int, ...]],
    starts: List[int],
    first_probe: int,
    split: int,
    prefixes: Optional[List[int]] = None,
) -> Iterator[Probe]:
    """The index join; given ``prefixes`` (each segment's safe prefix
    length) the prefix join, which indexes and probes only that many of a
    segment's tokens.  A segment is *whole* when its prefix is all of it:
    a pair of whole segments gets its scan count, exact as the index
    join's, and any other pair ``None``, left to the merge."""
    whole = (
        None if prefixes is None
        else [prefix >= len(seg) for prefix, seg in zip(prefixes, tokens)]
    )
    # Whether a cut (not whole) segment has been indexed yet: until one
    # is, a whole probing segment's scan counts are all exact.
    cut_indexed = False
    # token rank -> ascending indices of earlier segments containing it.
    inverted: Dict[int, List[int]] = {}
    for current, probe_tokens in enumerate(tokens):
        exact = whole is None or whole[current]
        if not exact:
            probe_tokens = probe_tokens[: prefixes[current]]
        if current >= first_probe:
            # Probing every token of the current segment against the index
            # of the earlier segments yields each one's exact intersection
            # count in one pass.
            start = starts[current]
            hits: Dict[int, int] = {}
            for token in probe_tokens:
                postings = inverted.get(token)
                if postings:
                    for earlier in postings[bisect_left(postings, start):]:
                        hits[earlier] = hits.get(earlier, 0) + 1
            if not exact:
                yield current, zip(hits, repeat(None))
            elif cut_indexed:
                yield current, [
                    (earlier, common if whole[earlier] else None)
                    for earlier, common in hits.items()
                ]
            else:
                yield current, hits.items()
        if current < split:
            cut_indexed = cut_indexed or not exact
            for token in probe_tokens:
                inverted.setdefault(token, []).append(current)
