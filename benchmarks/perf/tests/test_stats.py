"""The harness's arithmetic: percentile rule, best-of-rounds, self time."""

import math

import pytest

from repro.observability import Span
from stats import (
    Measured, best_of, p50_ms, percentile, self_times, summarize, tail_ms,
    tail_quantile,
)


@pytest.mark.parametrize("n, expected", [
    (3, 0.5), (19, 0.5), (199, 0.5),      # p95 would leave 9 beyond
    (200, 0.95), (999, 0.95),             # p99 would leave 9 beyond
    (1000, 0.99), (1200, 0.99),
])
def test_tail_quantile_leaves_ten_samples_beyond(n, expected):
    assert tail_quantile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))          # 1..200, shuffled order irrelevant
    assert percentile(values[::-1], 0.5) == 100
    assert percentile(values, 0.95) == 190     # ten samples lie beyond
    assert percentile(values, 0.99) == 198
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_best_of_takes_each_requests_fastest_round():
    rounds = [
        {"search": [1.0, 5.0, 3.0], "cpu": 0.9},
        {"search": [2.0, 2.0, math.inf], "cpu": 0.7},     # inf: a failed request
        {"search": [4.0, 3.0, 2.5], "cpu": 0.8},
    ]
    assert best_of(rounds) == {"search": [1.0, 2.0, 2.5], "cpu": 0.7}


def test_tail_and_median_carry_their_sample_counts():
    seconds = [i / 1000.0 for i in range(1, 201)]
    assert p50_ms(seconds) == Measured(100.0, 200)
    assert tail_ms(seconds) == Measured(190.0, 200, 0.95)
    assert tail_ms(seconds[:50]).quantile == 0.5


def test_summarize_keeps_the_rounds_spread_beside_the_value():
    entry = summarize(Measured(0.9, 600), [3.0, 1.0, 2.0])
    assert entry == {"value": 0.9, "samples": 600, "rounds": 3,
                     "per_round": [3.0, 1.0, 2.0],
                     "median": 2.0, "q1": 1.0, "q3": 3.0}
    lone = summarize(Measured(5.0, 1, 0.95), [5.0])
    assert lone["q1"] is None and lone["quantile"] == 0.95
    assert summarize(Measured(0.0, 7), [])["median"] is None


def _span(span_id, parent_id, duration):
    return Span(name=f"s{span_id}", phase="t", start=0.0, duration=duration,
                span_id=span_id, parent_id=parent_id)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span(1, None, 10.0),
        _span(2, 1, 4.0),
        _span(3, 2, 1.5),     # grandchild: charged to span 2 only
        _span(4, 1, 3.0),
        _span(5, None, 2.0),
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.5, 3: 1.5, 4: 3.0, 5: 2.0}


def test_self_time_never_negative():
    # Accumulated stage clocks can sum past a parent by timer jitter.
    spans = [_span(1, None, 1.0), _span(2, 1, 0.7), _span(3, 1, 0.4)]
    assert self_times(spans)[1] == 0.0
