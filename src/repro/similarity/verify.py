"""Exact verification of candidate pairs.

Verification computes the true intersection size of two token lists.  When
both lists are sorted under the same global ordering a linear merge suffices
(the ``O(m + n)`` case the paper mentions); unsorted inputs fall back to a
hash-set intersection.

The merge additionally supports **early termination** via a ``required``
bound (PPJoin's positional filter, applied during verification): at every
merge step the best achievable intersection is the matches found so far
plus the shorter remaining suffix, so as soon as that upper bound drops
below the required overlap the pair provably fails the threshold and the
merge is abandoned.  :func:`verify_pair` derives ``required`` from the
similarity threshold, making the early-terminating merge its default path.

The threshold side is one :class:`~repro.similarity.thresholds.
ThresholdRule` per ``(func, θ)``, resolved once by the caller — per call
in :func:`verify_pair`, per probe in the serving index, per fragment and
per job in the batch join.  A count below the rule's τ never passes, so a
caller that knows its count is below τ (an abandoned merge always is)
need not ask for a verdict: the serving probe asks only at τ.  It also
checks the merge's opening bound before calling the merge, since a pair
that fails it would cost a call and no comparison.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import threshold_rule


def intersection_size(
    s: Sequence,
    t: Sequence,
    sorted_input: bool = False,
    required: Optional[int] = None,
) -> int:
    """Return ``|set(s) ∩ set(t)|``.

    With ``sorted_input=True`` both sequences must be strictly increasing
    under a shared total order (tokens are unique within a record); a linear
    merge is used.  Otherwise a hash intersection is used.

    ``required`` (sorted merge only) enables early termination: when the
    matches found so far plus the shorter remaining suffix cannot reach
    ``required``, the merge stops and returns the current count.  The
    result is then some value ``< required`` — exact enough for any
    threshold test that needs at least ``required`` common tokens, but not
    necessarily the true intersection size.  With ``required=None`` (or on
    the hash path, which cannot terminate early) the result is exact.
    """
    if not sorted_input:
        # One set, one pass over ``t`` (set.intersection deduplicates).
        return len(set(s).intersection(t))
    return bounded_merge_intersection(
        s, t, 1 if required is None else required
    )[0]


def bounded_merge_intersection(
    a: Sequence[int], b: Sequence[int], required: int = 1,
    i: int = 0, j: int = 0,
) -> Tuple[int, int, bool]:
    """Merge-count with positional early termination (PPJoin-style).

    The one sorted-merge loop: the filter job's reducer, the serving
    probe and :func:`intersection_size` all count through it.

    Returns ``(count, comparisons, completed)``.  Before every comparison
    the best achievable intersection — matches so far plus the shorter
    remaining suffix — is checked against ``required``; when it falls
    short the merge is abandoned (``completed=False``, ``count`` is then a
    partial value ``< required``).  With ``required <= 1`` the bound can
    never fire mid-merge, so the result is always exact.  ``comparisons``
    counts the token comparisons actually performed, the quantity the
    ``fsjoin.filter`` and ``service.probe`` counters report.

    ``i`` and ``j`` are start offsets: the merge runs over ``a[i:]`` and
    ``b[j:]`` without slicing them, and every returned value is what the
    two slices would give (an offset at or past the end is an empty
    input).  A caller that knows nothing is common below ``(i, j)`` — the
    serving probe, whose scan found the pair's first common token there —
    gets the whole overlap, and the bound's check ahead of the first
    comparison, ``min(len(a) − i, len(b) − j) < required``, is then
    PPJoin's positional filter: a pair whose suffixes past the first hit
    are too short is abandoned with no comparison at all.
    """
    count = comparisons = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        remaining_a = len_a - i
        remaining_b = len_b - j
        if count + (remaining_a if remaining_a < remaining_b else remaining_b) < required:
            return count, comparisons, False
        comparisons += 1
        x, y = a[i], b[j]
        if x == y:
            count += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return count, comparisons, True


def verify_pair(
    s: Sequence,
    t: Sequence,
    theta: float,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    sorted_input: bool = False,
    early_termination: bool = True,
) -> Optional[float]:
    """Verify one candidate pair; return its score if ``sim ≥ θ`` else None.

    With sorted input the merge early-terminates by default once the pair
    provably cannot reach the equivalent-overlap threshold
    ``required_overlap(func, θ, |s|, |t|)``; ``early_termination=False``
    forces the full merge (the naive reference the property tests compare
    against).  Both paths return identical results: an abandoned merge can
    only happen when the true overlap is below the required bound, which
    the threshold test rejects.
    """
    rule = threshold_rule(func, theta)
    required: Optional[int] = None
    if sorted_input and early_termination:
        required = rule.tau(len(s), len(t))
    common = intersection_size(s, t, sorted_input=sorted_input, required=required)
    return rule.verdict(common, len(s), len(t))
