"""Unit + property tests for the threshold algebra."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.similarity.functions import (
    SimilarityFunction,
    get_similarity_function,
)
from repro.similarity.thresholds import (
    length_lower_bound,
    length_upper_bound,
    min_overlap_any_partner,
    passes_threshold,
    prefix_length,
    required_overlap,
    similarity_from_overlap,
    threshold_rule,
)

FUNCS = list(SimilarityFunction)
thetas = st.sampled_from([0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0])
sizes = st.integers(min_value=1, max_value=200)
funcs = st.sampled_from(FUNCS)


class TestRequiredOverlap:
    def test_jaccard_known(self):
        # θ/(1+θ)·(5+5) = 0.8/1.8·10 = 4.44… → 5
        assert required_overlap(SimilarityFunction.JACCARD, 0.8, 5, 5) == 5

    def test_dice_known(self):
        # 0.8/2·10 = 4
        assert required_overlap(SimilarityFunction.DICE, 0.8, 5, 5) == 4

    def test_cosine_known(self):
        # 0.8·sqrt(25) = 4
        assert required_overlap(SimilarityFunction.COSINE, 0.8, 5, 5) == 4

    def test_theta_one_jaccard(self):
        assert required_overlap(SimilarityFunction.JACCARD, 1.0, 7, 7) == 7

    def test_invalid_theta(self):
        with pytest.raises(ConfigError):
            required_overlap(SimilarityFunction.JACCARD, 0.0, 5, 5)
        with pytest.raises(ConfigError):
            required_overlap(SimilarityFunction.JACCARD, 1.5, 5, 5)

    @given(funcs, thetas, sizes, sizes)
    def test_symmetric(self, func, theta, a, b):
        assert required_overlap(func, theta, a, b) == required_overlap(func, theta, b, a)

    @given(funcs, thetas, sizes, sizes)
    def test_tight(self, func, theta, a, b):
        """τ is the *minimal* overlap passing the threshold test."""
        tau = required_overlap(func, theta, a, b)
        cap = min(a, b)
        if tau <= cap:
            assert passes_threshold(func, theta, tau, a, b)
        if 0 < tau:
            assert not passes_threshold(func, theta, tau - 1, a, b)


class TestLengthBounds:
    def test_jaccard_bounds(self):
        assert length_lower_bound(SimilarityFunction.JACCARD, 0.8, 10) == 8
        assert length_upper_bound(SimilarityFunction.JACCARD, 0.8, 10) == 12

    def test_dice_bounds(self):
        assert length_lower_bound(SimilarityFunction.DICE, 0.8, 12) == 8
        assert length_upper_bound(SimilarityFunction.DICE, 0.8, 12) == 18

    def test_cosine_bounds(self):
        assert length_lower_bound(SimilarityFunction.COSINE, 0.5, 100) == 25
        assert length_upper_bound(SimilarityFunction.COSINE, 0.5, 100) == 400

    @given(funcs, thetas, sizes)
    def test_bounds_bracket_size(self, func, theta, size):
        assert length_lower_bound(func, theta, size) <= size
        assert length_upper_bound(func, theta, size) >= size

    @given(funcs, thetas, sizes)
    def test_bounds_are_inverse(self, func, theta, size):
        """If b is admissible for a, then a is admissible for b."""
        low = max(1, length_lower_bound(func, theta, size))
        assert length_upper_bound(func, theta, low) >= size

    @given(funcs, thetas, sizes, sizes)
    def test_outside_band_means_dissimilar(self, func, theta, a, b):
        """No overlap can reach θ when the partner is outside the band."""
        if b < length_lower_bound(func, theta, a) or b > length_upper_bound(
            func, theta, a
        ):
            best = min(a, b)
            assert not passes_threshold(func, theta, best, a, b)


class TestPrefixLength:
    def test_jaccard_known(self):
        # |s|=10, θ=0.8: p = 10 − 8 + 1 = 3
        assert prefix_length(SimilarityFunction.JACCARD, 0.8, 10) == 3

    def test_zero_size(self):
        assert prefix_length(SimilarityFunction.JACCARD, 0.8, 0) == 0

    def test_theta_one(self):
        assert prefix_length(SimilarityFunction.JACCARD, 1.0, 9) == 1

    @given(funcs, thetas, sizes)
    def test_within_record(self, func, theta, size):
        assert 1 <= prefix_length(func, theta, size) <= size

    @given(funcs, thetas, sizes)
    def test_smaller_theta_longer_prefix(self, func, theta, size):
        if theta >= 0.6:
            assert prefix_length(func, theta - 0.1, size) >= prefix_length(
                func, theta, size
            )

    @given(funcs, thetas, sizes)
    def test_min_overlap_consistency(self, func, theta, size):
        tau = min_overlap_any_partner(func, theta, size)
        assert 1 <= tau <= size
        assert prefix_length(func, theta, size) == size - tau + 1


class TestPrefixFilterGuarantee:
    """The prefix-filter completeness property, checked exhaustively."""

    @given(
        funcs,
        thetas,
        st.lists(st.integers(0, 30), min_size=1, max_size=15, unique=True),
        st.lists(st.integers(0, 30), min_size=1, max_size=15, unique=True),
    )
    def test_similar_pairs_share_prefix_token(self, func, theta, a, b):
        a, b = sorted(a), sorted(b)
        similarity = get_similarity_function(func)
        if similarity(set(a), set(b)) >= theta:
            pa = prefix_length(func, theta, len(a))
            pb = prefix_length(func, theta, len(b))
            assert set(a[:pa]) & set(b[:pb])


class TestVerificationRules:
    """Section V-B: exact scores from the aggregated common-token count."""

    @given(funcs, st.integers(0, 50), sizes, sizes)
    def test_matches_direct_computation(self, func, common, a, b):
        common = min(common, a, b)
        set_a = frozenset(range(a))
        set_b = frozenset(range(common)) | frozenset(range(1000, 1000 + b - common))
        direct = get_similarity_function(func)(set_a, set_b)
        derived = similarity_from_overlap(func, common, a, b)
        assert derived == pytest.approx(direct)

    @given(funcs, thetas, st.integers(0, 50), sizes, sizes)
    def test_passes_iff_score_reaches_theta(self, func, theta, common, a, b):
        common = min(common, a, b)
        score = similarity_from_overlap(func, common, a, b)
        if passes_threshold(func, theta, common, a, b):
            assert score >= theta - 1e-6
        else:
            assert score < theta + 1e-6

    def test_boundary_accepted(self):
        # Exactly θ: jaccard 4/(5+4-... ): c=4, a=5, b=5 → 4/6 = 0.666…
        assert passes_threshold(SimilarityFunction.JACCARD, 2 / 3, 4, 5, 5)


def _reference(func, theta, s, t, common):
    """The threshold algebra as literal formulas over numpy columns —
    ``(τ before the ceiling, passes at common, score at common)`` — in the
    float order the module documents (IEEE ``+ * / sqrt`` round the same
    in numpy and in Python)."""
    if func is SimilarityFunction.JACCARD:
        return (theta / (1.0 + theta) * (s + t),
                common * (1.0 + theta) + 1e-9 >= theta * (s + t),
                common / (s + t - common))
    if func is SimilarityFunction.DICE:
        return (theta / 2.0 * (s + t),
                2.0 * common + 1e-9 >= theta * (s + t),
                2.0 * common / (s + t))
    return (theta * np.sqrt(s * t),
            common * common + 1e-9 >= theta * theta * s * t,
            common / np.sqrt(s * t))


class TestThresholdRule:
    """The resolved ``(func, θ)`` rule every join and probe asks."""

    @pytest.mark.parametrize("func", FUNCS)
    def test_exhaustive_grid_matches_the_formulas_bit_for_bit(self, func):
        """θ ∈ {1/3, 0.5, …, 1.0} × every size pair in 1..300: τ is the
        literal formula's, no count below τ passes (the test is monotone
        in the count, so τ − 1 is the one to ask), and the verdict at τ is
        the formula's score (bit for bit) or ``None`` as the formula says."""
        grid = np.arange(1, 301)
        s, t = (axis.ravel() for axis in np.meshgrid(grid, grid, indexing="ij"))
        s_list, t_list = s.tolist(), t.tolist()
        for theta in (1 / 3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0):
            rule = threshold_rule(func, theta)
            taus = np.array(list(map(rule.tau, s_list, t_list)))
            raw, _, _ = _reference(func, theta, s, t, 0)
            assert np.array_equal(taus, np.ceil(raw - 1e-9).astype(np.int64))
            below = list(map(rule.verdict, (taus - 1).tolist(), s_list, t_list))
            assert below.count(None) == len(below), theta
            _, passes, score = _reference(func, theta, s, t, taus)
            got = np.array([
                -1.0 if verdict is None else verdict
                for verdict in map(rule.verdict, taus.tolist(), s_list, t_list)
            ])
            want = np.where(passes, score, -1.0)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_validation_happens_once_at_resolution(self):
        with pytest.raises(ConfigError):
            threshold_rule(SimilarityFunction.JACCARD, 0.0)
        with pytest.raises(ConfigError):
            threshold_rule(SimilarityFunction.COSINE, 1.5)
        with pytest.raises(ValueError):
            threshold_rule("hamming", 0.5)
        rule = threshold_rule("dice", 0.8)
        assert rule.func is SimilarityFunction.DICE and rule.theta == 0.8

    @pytest.mark.parametrize("func", FUNCS)
    def test_a_rule_pickles_as_its_func_and_theta(self, func):
        rule = threshold_rule(func, 0.7)
        twin = pickle.loads(pickle.dumps(rule))
        assert type(twin) is type(rule)
        assert (twin.func, twin.theta) == (rule.func, rule.theta)
        assert [twin.tau(a, 9) for a in range(1, 20)] == [
            rule.tau(a, 9) for a in range(1, 20)]
