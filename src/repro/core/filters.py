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
  not a per-pair test here but a bound, :func:`min_partner_len`, which the
  fragment join turns into a window over its length-sorted segments
  (``core/joins.py``): a pruned pair is never enumerated.
* SegL-Filter (Lemma 2): prune when even a full overlap of the two segments
  plus full head/tail overlaps cannot reach ``τ``.
* SegI-Filter (Lemma 3): like SegL but with the *actual* segment
  intersection instead of its upper bound.
* SegD-Filter (Lemma 4): prune when the segment symmetric difference
  already exceeds the total symmetric-difference budget
  ``|s| + |t| − 2τ`` minus the unavoidable head/tail differences.

Lemmas 2–4 are per-pair tests, and they are evaluated inline in
:func:`~repro.core.joins.join_fragment`'s partner loop, over flat columns
of the fragment with ``τ`` memoised per length pair.  Lemmas 3 and 4 are
monotone in the segment intersection, so each becomes one threshold on it;
the larger of the two is also the early-termination bound of a segment
merge, where one runs (``FilterConfig.early_verify``).
"""

from __future__ import annotations

from repro.core.config import FilterConfig
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import length_lower_bound


def min_partner_len(
    config: FilterConfig, func: SimilarityFunction, theta: float, length: int
) -> int:
    """Lemma 1 from the longer record's side: the smallest ``|t| ≤ |s|``
    that can still be similar to a record of ``length`` tokens (0 with
    StrL off — every shorter record is admissible)."""
    if not config.strl:
        return 0
    return length_lower_bound(func, theta, length)
