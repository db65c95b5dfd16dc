"""The four filtering methods of Section V-A (Lemmas 1–4).

All four filters are *safe per fragment*: each lemma's proof derives
``sim(s, t) < θ`` from a single fragment's view (the ∀-quantifier in the
paper's statements is stronger than the proofs require), so a reducer may
suppress a pair locally.  A suppressed pair can then only be under-counted
during verification, and under-counting a provably-dissimilar pair never
changes the result set.

The lemmas are stated in the paper for Jaccard; here they are parameterised
by the *required overlap* ``τ = required_overlap(func, θ, |s|, |t|)``, which
makes the same inequalities valid for Dice and Cosine:

* StrL-Filter (Lemma 1): prune when the partner length is outside the
  admissible band.  It depends on the two record lengths alone, so it is
  not a per-pair test here but a bound, :meth:`FragmentFilters.min_partner_len`,
  which the fragment join turns into a window over its length-sorted
  segments (``core/joins.py``): a pruned pair is never enumerated.
* SegL-Filter (Lemma 2): prune when even a full overlap of the two segments
  plus full head/tail overlaps cannot reach ``τ``.
* SegI-Filter (Lemma 3): like SegL but with the *actual* segment
  intersection instead of its upper bound.
* SegD-Filter (Lemma 4): prune when the segment symmetric difference
  already exceeds the total symmetric-difference budget
  ``|s| + |t| − 2τ`` minus the unavoidable head/tail differences.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.config import FilterConfig
from repro.core.partitioning import Segment
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import (
    length_lower_bound,
    required_overlap,
)

#: ``(pruned_by, segi_min, segd_min)`` — see :meth:`FragmentFilters.bounds`.
PairBounds = Tuple[Optional[str], int, int]


class FragmentFilters:
    """Filter battery applied inside one fragment's join.

    Construct once per fragment: the instance memoises ``τ`` by length
    pair, so a fragment derives it from ``θ`` once however many segment
    pairs share those lengths.

    :meth:`min_partner_len` is Lemma 1; :meth:`bounds` is the one place
    Lemmas 2–4 are evaluated.  It runs the length-only SegL filter and
    turns the two intersection-dependent ones into thresholds on the
    segment intersection, which the caller reads twice:
    as the early-termination bound of the segment merge
    (:meth:`min_required_common`) and as the post-intersection decision
    (:meth:`verdict`).
    """

    def __init__(
        self,
        theta: float,
        func: SimilarityFunction,
        config: FilterConfig,
    ) -> None:
        self.theta = theta
        self.func = SimilarityFunction(func)
        self.config = config
        self._needs_tau = config.segl or config.segi or config.segd
        self._tau: Dict[Tuple[int, int], int] = {}

    def min_partner_len(self, length: int) -> int:
        """Lemma 1 from the longer record's side: the smallest ``|t| ≤ |s|``
        that can still be similar to a record of ``length`` tokens (0 with
        StrL off — every shorter record is admissible)."""
        if not self.config.strl:
            return 0
        return length_lower_bound(self.func, self.theta, length)

    def bounds(self, seg_s: Segment, seg_t: Segment) -> PairBounds:
        """Evaluate Lemmas 2–4 for one segment pair, intersection unseen.

        Returns ``(pruned_by, segi_min, segd_min)``.  ``pruned_by`` is
        ``"segl"`` when that length-only filter prunes the pair, else
        ``None``.  ``segi_min`` and ``segd_min`` are the smallest
        segment intersections Lemma 3 and Lemma 4 let survive — both
        filters are monotone in the intersection, so each is one threshold
        — and are 0 for a disabled filter or a pruned pair.
        """
        if not self._needs_tau:
            return None, 0, 0
        info_s, info_t = seg_s.info, seg_t.info
        len_s, len_t = info_s.str_len, info_t.str_len
        config = self.config
        tau = self._tau.get((len_s, len_t))
        if tau is None:
            tau = self._tau[len_s, len_t] = required_overlap(
                self.func, self.theta, len_s, len_t
            )
        ahead_s, ahead_t = info_s.ahead, info_t.ahead
        behind_s, behind_t = info_s.behind, info_t.behind
        size_s, size_t = len(seg_s.tokens), len(seg_t.tokens)
        # Lemmas 2 and 3 share one slack: what the segments themselves must
        # contribute once heads and tails overlap as fully as they can.
        slack = (
            tau
            - (ahead_s if ahead_s < ahead_t else ahead_t)
            - (behind_s if behind_s < behind_t else behind_t)
        )
        # Lemma 2: even a full overlap of the shorter segment falls short.
        if config.segl and (size_s if size_s < size_t else size_t) < slack:
            return "segl", 0, 0
        # Lemma 3 prunes when common < slack.
        segi_min = slack if config.segi else 0
        segd_min = 0
        if config.segd:
            # Lemma 4 prunes when |seg_s| + |seg_t| − 2·common > budget, the
            # symmetric-difference budget left after the unavoidable
            # head/tail differences; i.e. the pair survives iff
            # common ≥ ⌈(|seg_s| + |seg_t| − budget) / 2⌉.
            budget = (
                (len_s + len_t - 2 * tau)
                - abs(ahead_s - ahead_t)
                - abs(behind_s - behind_t)
            )
            segd_min = -((budget - size_s - size_t) // 2)
        return None, segi_min, segd_min

    @staticmethod
    def min_required_common(segi_min: int, segd_min: int) -> int:
        """Smallest segment intersection that survives :meth:`verdict`.

        The segment merge may be abandoned as soon as the remaining
        suffixes cannot reach this value: the pair would be pruned — or, at
        0 overlap, dropped as disjoint — whatever the exact count turned
        out to be.  Always ≥ 1 because zero-overlap segment pairs are never
        emitted.
        """
        return max(1, segi_min, segd_min)

    @staticmethod
    def verdict(common: int, segi_min: int, segd_min: int) -> Optional[str]:
        """The filter (``"segi"``/``"segd"``) that prunes a pair whose exact
        segment intersection is ``common``, or ``None`` to keep it."""
        if common < segi_min:
            return "segi"
        if common < segd_min:
            return "segd"
        return None
