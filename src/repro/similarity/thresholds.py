"""Threshold algebra for filter-and-verification similarity joins.

Every signature-based join (FS-Join and all baselines) relies on translating
a similarity threshold ``θ`` into three derived quantities:

* **required overlap** — the minimum ``|s ∩ t|`` two records of known sizes
  must share to possibly reach ``θ``;
* **length bounds** — the admissible partner sizes for a record of size ``a``
  (the basis of the StrL-Filter, Lemma 1, and of horizontal partitioning);
* **prefix length** — how many of a record's (globally ordered) tokens must
  be indexed so that any similar pair is guaranteed to collide on at least
  one indexed token.

The paper states these for Jaccard; this module derives the same algebra for
Dice and Cosine so all three verification rules of Section V-B are supported
end to end.

Floating-point comparisons use a small symmetric epsilon (``EPS``) so that
pairs lying exactly on the threshold are accepted, matching the paper's
``sim ≥ θ`` semantics.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.similarity.functions import SimilarityFunction

#: Tolerance for float comparisons at the threshold boundary.
EPS = 1e-9


def check_threshold(theta: float) -> None:
    if not 0.0 < theta <= 1.0:
        raise ConfigError(f"similarity threshold must be in (0, 1], got {theta!r}")


def _ceil(x: float) -> int:
    """Ceiling that forgives float noise just below an integer."""
    return int(math.ceil(x - EPS))


def _floor(x: float) -> int:
    """Floor that forgives float noise just above an integer."""
    return int(math.floor(x + EPS))


def required_overlap(
    func: SimilarityFunction, theta: float, size_s: int, size_t: int
) -> int:
    """Minimum ``|s ∩ t|`` for ``sim(s, t) ≥ θ`` given the two set sizes.

    Jaccard: ``c ≥ θ/(1+θ)·(|s|+|t|)`` — the bound used by the paper's
    SegI-Filter (Lemma 3).  Dice: ``c ≥ θ/2·(|s|+|t|)``.  Cosine:
    ``c ≥ θ·sqrt(|s|·|t|)``.
    """
    check_threshold(theta)
    func = SimilarityFunction(func)
    if func is SimilarityFunction.JACCARD:
        return _ceil(theta / (1.0 + theta) * (size_s + size_t))
    if func is SimilarityFunction.DICE:
        return _ceil(theta / 2.0 * (size_s + size_t))
    return _ceil(theta * math.sqrt(size_s * size_t))


def length_lower_bound(func: SimilarityFunction, theta: float, size: int) -> int:
    """Smallest partner size that can be similar to a record of ``size`` tokens."""
    check_threshold(theta)
    func = SimilarityFunction(func)
    if func is SimilarityFunction.JACCARD:
        return _ceil(theta * size)
    if func is SimilarityFunction.DICE:
        return _ceil(theta * size / (2.0 - theta))
    return _ceil(theta * theta * size)


def length_upper_bound(func: SimilarityFunction, theta: float, size: int) -> int:
    """Largest partner size that can be similar to a record of ``size`` tokens."""
    check_threshold(theta)
    func = SimilarityFunction(func)
    if func is SimilarityFunction.JACCARD:
        return _floor(size / theta)
    if func is SimilarityFunction.DICE:
        return _floor(size * (2.0 - theta) / theta)
    return _floor(size / (theta * theta))


def min_overlap_any_partner(
    func: SimilarityFunction, theta: float, size: int
) -> int:
    """Required overlap against the *most favourable* admissible partner.

    This is the lower bound used to size prefixes: the shortest admissible
    partner minimises the required overlap.  For Jaccard the value is
    ``ceil(θ·|s|)``.
    """
    smallest = max(1, length_lower_bound(func, theta, size))
    return max(1, required_overlap(func, theta, size, smallest))


def prefix_length(func: SimilarityFunction, theta: float, size: int) -> int:
    """Prefix-filter length for a record of ``size`` globally ordered tokens.

    If ``sim(s, t) ≥ θ`` then the first ``prefix_length`` tokens of each
    record (under the same global ordering) share at least one token.  For
    Jaccard this is the familiar ``|s| − ceil(θ·|s|) + 1``.
    """
    if size == 0:
        return 0
    return size - min_overlap_any_partner(func, theta, size) + 1


def similarity_from_overlap(
    func: SimilarityFunction, common: int, size_s: int, size_t: int
) -> float:
    """Exact similarity score from ``|s ∩ t|`` and the two set sizes.

    This is the verification rule of Section V-B: FS-Join never re-reads the
    original strings, it derives the score from the aggregated common-token
    count alone.
    """
    func = SimilarityFunction(func)
    if func is SimilarityFunction.JACCARD:
        union = size_s + size_t - common
        return common / union if union else 0.0
    if func is SimilarityFunction.DICE:
        total = size_s + size_t
        return 2.0 * common / total if total else 0.0
    if not size_s or not size_t:
        return 0.0
    return common / math.sqrt(size_s * size_t)


def passes_threshold(
    func: SimilarityFunction, theta: float, common: int, size_s: int, size_t: int
) -> bool:
    """Whether ``sim(s, t) ≥ θ`` given ``|s ∩ t|`` and the set sizes.

    Uses cross-multiplied comparisons so no division is performed; ties at
    the threshold are accepted.
    """
    check_threshold(theta)
    func = SimilarityFunction(func)
    if common <= 0:
        # Zero overlap means similarity 0 under all three functions, which
        # can never reach a positive threshold (including the empty/empty
        # pair, defined as 0 by the join semantics).
        return False
    if func is SimilarityFunction.JACCARD:
        return common * (1.0 + theta) + EPS >= theta * (size_s + size_t)
    if func is SimilarityFunction.DICE:
        return 2.0 * common + EPS >= theta * (size_s + size_t)
    return common * common + EPS >= theta * theta * size_s * size_t
