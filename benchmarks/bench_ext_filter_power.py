"""Extension: what controls the segment filters' pruning power.

Table IV reproduces weakly at the paper's 30 vertical partitions on our
synthetic corpora (EXPERIMENTS.md).  This ablation isolates the mechanism:
Lemmas 2–4 compare a fragment's segment sizes against the overlap budget
``τ − min(heads) − min(tails)``, which only goes positive when a segment
carries a meaningful share of its record — i.e. the filters strengthen as
the vertical partition count drops (or records lengthen).

Measured on both a plain Zipf corpus and a topic-clustered one
(:mod:`repro.data.textlike`): at 5 partitions SegI/SegD prune ~3/4 of the
StrL-only candidate pairs, approaching the paper's regime; at 30 they
prune ~10–15%.  (Candidates are ``fsjoin.filter.candidates_emitted``;
the filter job's output *records* are stripes and do not count pairs.)
"""

from __future__ import annotations

import pytest

from _common import DEFAULT_CLUSTER, corpus, record_table
from repro.core import FSJoin, FSJoinConfig, JoinMethod
from repro.core.config import FilterConfig
from repro.data.textlike import topic_corpus
from repro.mapreduce.runtime import SimulatedCluster

THETA = 0.8
PARTITION_COUNTS = (5, 10, 30)


def _corpora():
    return {
        "wiki": corpus("wiki", 400),
        "topic": topic_corpus(400, seed=7),
    }


@pytest.mark.parametrize("corpus_name", ["wiki", "topic"])
def test_ext_filter_power_vs_partitions(benchmark, corpus_name):
    cluster = SimulatedCluster(DEFAULT_CLUSTER)
    records = _corpora()[corpus_name]

    def sweep():
        rows = []
        for n_vertical in PARTITION_COUNTS:
            outputs = {}
            for label, filters in [
                ("strl", FilterConfig.only("strl")),
                ("all", FilterConfig()),
            ]:
                result = FSJoin(
                    FSJoinConfig(
                        theta=THETA,
                        n_vertical=n_vertical,
                        filters=filters,
                        join_method=JoinMethod.INDEX,
                    ),
                    cluster,
                ).run(records)
                outputs[label] = result.counters().get(
                    "fsjoin.filter", "candidates_emitted"
                )
                outputs.setdefault("results", len(result.pairs))
            rows.append(
                {
                    "corpus": corpus_name,
                    "n_vertical": n_vertical,
                    "strl_only": outputs["strl"],
                    "all_filters": outputs["all"],
                    "kept_fraction": outputs["all"] / max(1, outputs["strl"]),
                    "results": outputs["results"],
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table(
        f"ext_filter_power_{corpus_name}",
        rows,
        f"Extension ({corpus_name}) — segment-filter power vs partition count, θ={THETA}",
    )

    # Same results at every partition count.
    assert len({row["results"] for row in rows}) == 1
    # Bigger segments (fewer partitions) → stronger per-fragment filters.
    kept = [row["kept_fraction"] for row in rows]
    assert kept[0] < kept[-1]
    assert kept[0] < 0.5  # at 5 partitions the filters prune most records
