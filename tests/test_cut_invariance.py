"""An unsliced index reads one posting run per prefix token, whatever its cuts.

The cuts decide which fragment a token's postings live in, never which
records they list: a token sits in exactly one fragment, and its run
holds every record that contains it.  So one record set under one order,
indexed under any cut set — none at all, the build's Even-TF cuts, even
intervals, every cut crowded into the vocabulary's tail — must answer
every probe with the same hits *and* the same ``service.probe`` work.

This is why a streaming ingest tier (one node, never sliced) fixes its
cuts at bootstrap: re-deriving them as appended tokens skew the balance
would buy no probe work, only a whole-tier rewrite.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import PivotMethod, select_pivots
from repro.data.records import Record, RecordCollection
from repro.mapreduce.counters import Counters
from repro.service import SegmentIndex
from repro.service.index import PROBE_GROUP
from repro.similarity.functions import SimilarityFunction
from tests.conftest import brute_force_search

VOCAB = [f"v{i:02d}" for i in range(40)]

token_sets = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12,
                      unique=True)


def _cut_sets(vocab_size: int, frequencies, drawn):
    """``()``, the Even-TF and even-interval cuts, a skewed tail-heavy
    set, and one drawn at random — every one valid for the vocabulary."""
    tail = tuple(range(max(1, vocab_size - 4), vocab_size))
    return {
        "none": (),
        "even-tf": select_pivots(frequencies, 6, PivotMethod.EVEN_TF),
        "even-interval": select_pivots(frequencies, 4,
                                       PivotMethod.EVEN_INTERVAL),
        "skewed": tail if vocab_size > 1 else (),
        "drawn": tuple(sorted({c for c in drawn if 0 < c < vocab_size})),
    }


def _probe(index, queries, theta, func):
    counters = Counters()
    hits = index.probe_batch(
        [index.encode_query(q) for q in queries], theta, func, counters
    )
    return hits, counters.group(PROBE_GROUP)


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(token_sets, min_size=2, max_size=25),
    extra=st.lists(token_sets, min_size=0, max_size=3),
    drawn=st.lists(st.integers(1, len(VOCAB)), max_size=8),
    theta=st.floats(0.2, 1.0),
    func=st.sampled_from(list(SimilarityFunction)),
)
def test_hits_and_probe_work_do_not_depend_on_the_cuts(
    records, extra, drawn, theta, func
):
    corpus = [Record.make(rid, tokens) for rid, tokens in enumerate(records)]
    layout = SegmentIndex.build(RecordCollection(corpus), n_vertical=6)
    order = layout.order
    queries = [list(r.tokens) for r in corpus] + extra + [["never-seen"]]

    answers = {}
    for name, cuts in _cut_sets(
        order.vocab_size, order.rank_frequencies, drawn
    ).items():
        index = SegmentIndex(order, VerticalPartitioner(cuts))
        index.apply_batch(corpus)
        index._seal()
        assert index.n_fragments == len(cuts) + 1
        answers[name] = _probe(index, queries, theta, func)

    hits, work = answers["none"]
    assert hits == [brute_force_search(corpus, q, theta, func.value)
                    for q in queries]
    assert {"posting_lookups", "candidates", "verify_token_comparisons",
            "results"} <= set(work)
    for name, answer in answers.items():
        assert answer == (hits, work), name
