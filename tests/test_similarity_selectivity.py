"""Tests for sampling-based selectivity estimation."""

from __future__ import annotations

import pytest

from repro.baselines.naive import naive_self_join
from repro.data import make_corpus
from repro.data.records import RecordCollection
from repro.errors import ConfigError
from repro.similarity.selectivity import estimate_result_count


class TestValidation:
    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            estimate_result_count(make_corpus("wiki", 20, seed=0), 0.8, trials=0)

    def test_bad_sample_size(self):
        with pytest.raises(ConfigError):
            estimate_result_count(
                make_corpus("wiki", 20, seed=0), 0.8, sample_size=1
            )

    @pytest.mark.parametrize("sample_size", [0, -5])
    def test_zero_or_negative_sample_size_is_not_the_default(
            self, sample_size):
        """Only ``None`` means the default sample; 0 is refused, not
        silently read as unset."""
        with pytest.raises(ConfigError, match="sample_size"):
            estimate_result_count(
                make_corpus("wiki", 80, seed=0), 0.8, sample_size=sample_size
            )


class TestEstimates:
    def test_tiny_collection(self):
        estimate = estimate_result_count(RecordCollection(), 0.8)
        assert estimate.estimated_pairs == 0.0
        assert estimate.trials == 0

    def test_full_sample_is_exact(self):
        records = make_corpus("wiki", 80, seed=4)
        truth = len(naive_self_join(records, 0.8))
        estimate = estimate_result_count(
            records, 0.8, sample_size=len(records), trials=1
        )
        assert estimate.estimated_pairs == pytest.approx(truth)

    def test_deterministic(self):
        records = make_corpus("wiki", 100, seed=5)
        a = estimate_result_count(records, 0.8, sample_size=40, seed=7)
        b = estimate_result_count(records, 0.8, sample_size=40, seed=7)
        assert a.per_trial == b.per_trial

    def test_reasonable_on_planted_corpus(self):
        """With half-size samples and averaging, the estimate lands within
        a small factor of the truth on a duplicate-rich corpus."""
        records = make_corpus("wiki", 200, seed=6, duplicate_fraction=0.4)
        truth = len(naive_self_join(records, 0.8))
        estimate = estimate_result_count(
            records, 0.8, sample_size=100, trials=8, seed=1
        )
        assert truth > 0
        assert truth / 4 <= estimate.estimated_pairs <= truth * 4

    def test_zero_when_no_similar_pairs(self):
        records = make_corpus("wiki", 80, seed=8, duplicate_fraction=0.0)
        estimate = estimate_result_count(records, 0.99, sample_size=80, trials=1)
        assert estimate.estimated_pairs == 0.0

    def test_metadata(self):
        records = make_corpus("wiki", 60, seed=9)
        estimate = estimate_result_count(records, 0.8, sample_size=30, trials=4)
        assert estimate.sample_size == 30
        assert estimate.trials == 4
        assert len(estimate.per_trial) == 4
