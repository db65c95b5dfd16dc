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

The per-pair quantities — required overlap, threshold test, score — live
on one :class:`ThresholdRule` per ``(func, θ)``, resolved once by
:func:`threshold_rule`; hot loops (the serving probe, the batch join's
fragments and verification job) hold the rule, and
:func:`required_overlap` / :func:`passes_threshold` are validating
wrappers over it, so each formula has exactly one copy.
"""

from __future__ import annotations

import math
from typing import Optional

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
    ``c ≥ θ·sqrt(|s|·|t|)``.  A validating wrapper over
    :meth:`ThresholdRule.tau`.
    """
    return threshold_rule(func, theta).tau(size_s, size_t)


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
    return _RULES[SimilarityFunction(func)].score(common, size_s, size_t)


def passes_threshold(
    func: SimilarityFunction, theta: float, common: int, size_s: int, size_t: int
) -> bool:
    """Whether ``sim(s, t) ≥ θ`` given ``|s ∩ t|`` and the set sizes.

    Uses cross-multiplied comparisons so no division is performed; ties at
    the threshold are accepted.  A validating wrapper over
    :meth:`ThresholdRule.passes`.
    """
    return threshold_rule(func, theta).passes(common, size_s, size_t)


class ThresholdRule:
    """One ``(func, θ)``, validated and resolved once.

    A join or a probe asks the same question of every pair: what overlap
    does ``sim ≥ θ`` need, and does this count reach it.  The rule answers
    both from set sizes alone — :meth:`tau` (the required overlap),
    :meth:`passes` (the threshold test) and :meth:`verdict` (the score, or
    ``None`` below θ) — with θ's constants computed once and no
    per-pair validation or enum coercion.  Each subclass evaluates its
    formulas in the float order the module always has, so a rule's τ,
    test and score are bit for bit those of the wrappers over it.

    ``verdict(c) is None`` for every ``c < tau``: τ is the smallest
    passing count (``tests/test_similarity_thresholds.py`` checks it
    exhaustively) and the test is monotone in ``c``, so a caller that
    already knows ``c < τ`` need not ask.  A rule pickles as its
    ``(func, θ)`` and is rebuilt on load.
    """

    __slots__ = ("func", "theta")

    def __init__(self, func: SimilarityFunction, theta: float) -> None:
        self.func = func
        self.theta = theta

    def __reduce__(self):
        return threshold_rule, (self.func, self.theta)

    def tau(self, size_s: int, size_t: int) -> int:
        """Minimum ``|s ∩ t|`` for ``sim(s, t) ≥ θ``."""
        raise NotImplementedError

    def passes(self, common: int, size_s: int, size_t: int) -> bool:
        """Whether ``common`` shared tokens reach θ.  Zero overlap means
        similarity 0 under all three functions, which can never reach a
        positive threshold (including the empty/empty pair, defined as 0
        by the join semantics)."""
        raise NotImplementedError

    @staticmethod
    def score(common: int, size_s: int, size_t: int) -> float:
        """The exact similarity of a pair from its overlap and sizes."""
        raise NotImplementedError

    def verdict(self, common: int, size_s: int, size_t: int) -> Optional[float]:
        """The pair's score if ``sim ≥ θ``, else ``None``."""
        if self.passes(common, size_s, size_t):
            return self.score(common, size_s, size_t)
        return None


class _JaccardRule(ThresholdRule):
    __slots__ = ("_ratio", "_scale")

    def __init__(self, func: SimilarityFunction, theta: float) -> None:
        super().__init__(func, theta)
        self._ratio = theta / (1.0 + theta)
        self._scale = 1.0 + theta

    def tau(self, size_s: int, size_t: int) -> int:
        return _ceil(self._ratio * (size_s + size_t))

    def passes(self, common: int, size_s: int, size_t: int) -> bool:
        return common > 0 and (
            common * self._scale + EPS >= self.theta * (size_s + size_t)
        )

    @staticmethod
    def score(common: int, size_s: int, size_t: int) -> float:
        union = size_s + size_t - common
        return common / union if union else 0.0


class _DiceRule(ThresholdRule):
    __slots__ = ("_half",)

    def __init__(self, func: SimilarityFunction, theta: float) -> None:
        super().__init__(func, theta)
        self._half = theta / 2.0

    def tau(self, size_s: int, size_t: int) -> int:
        return _ceil(self._half * (size_s + size_t))

    def passes(self, common: int, size_s: int, size_t: int) -> bool:
        return common > 0 and (
            2.0 * common + EPS >= self.theta * (size_s + size_t)
        )

    @staticmethod
    def score(common: int, size_s: int, size_t: int) -> float:
        total = size_s + size_t
        return 2.0 * common / total if total else 0.0


class _CosineRule(ThresholdRule):
    __slots__ = ("_square",)

    def __init__(self, func: SimilarityFunction, theta: float) -> None:
        super().__init__(func, theta)
        self._square = theta * theta

    def tau(self, size_s: int, size_t: int) -> int:
        return _ceil(self.theta * math.sqrt(size_s * size_t))

    def passes(self, common: int, size_s: int, size_t: int) -> bool:
        return common > 0 and (
            common * common + EPS >= self._square * size_s * size_t
        )

    @staticmethod
    def score(common: int, size_s: int, size_t: int) -> float:
        if not size_s or not size_t:
            return 0.0
        return common / math.sqrt(size_s * size_t)


_RULES = {
    SimilarityFunction.JACCARD: _JaccardRule,
    SimilarityFunction.DICE: _DiceRule,
    SimilarityFunction.COSINE: _CosineRule,
}


def threshold_rule(func: SimilarityFunction, theta: float) -> ThresholdRule:
    """Validate ``(func, θ)`` once and resolve it to its :class:`ThresholdRule`."""
    check_threshold(theta)
    func = SimilarityFunction(func)
    return _RULES[func](func, theta)
