"""Table IV: pruning power of the individual filters.

Paper setup: θ = 0.8 on Email(10%), Wiki(1%), PubMed(1%) samples; the cells
are the candidate pairs the filter job emits under each filter
combination (StrL always on, as in the paper) — the
``fsjoin.filter.candidates_emitted`` counter: the job's *output records*
are stripes, one per probing segment, and no longer count pairs.  "StrL+Prefix" switches the
fragment join from the index join to the prefix join; "All" enables
everything.

Shapes asserted: every combination prunes relative to StrL alone; SegI is
at least as strong as SegL (it replaces SegL's upper bound with the actual
intersection); "All" is the strongest; and the filters never change the
final result set.
"""

from __future__ import annotations

import pytest

from _common import DEFAULT_CLUSTER, corpus, record_table
from repro.core import FSJoin, FSJoinConfig, JoinMethod
from repro.core.config import FilterConfig
from repro.mapreduce.runtime import SimulatedCluster

THETA = 0.8
SIZES = {"email": 300, "pubmed": 400, "wiki": 400}

COMBINATIONS = [
    ("StrL", FilterConfig.only("strl"), JoinMethod.INDEX),
    ("StrL+SegL", FilterConfig.only("strl", "segl"), JoinMethod.INDEX),
    ("StrL+SegI", FilterConfig.only("strl", "segi"), JoinMethod.INDEX),
    ("StrL+SegD", FilterConfig.only("strl", "segd"), JoinMethod.INDEX),
    ("StrL+Prefix", FilterConfig.only("strl"), JoinMethod.PREFIX),
    ("All", FilterConfig(), JoinMethod.PREFIX),
]


@pytest.mark.parametrize("name", list(SIZES))
def test_table4_filter_power(benchmark, name):
    cluster = SimulatedCluster(DEFAULT_CLUSTER)
    records = corpus(name, SIZES[name])

    def sweep():
        rows = []
        for label, filters, join_method in COMBINATIONS:
            config = FSJoinConfig(
                theta=THETA, n_vertical=30,
                filters=filters, join_method=join_method,
            )
            result = FSJoin(config, cluster).run(records)
            rows.append(
                {
                    "dataset": name,
                    "filters": label,
                    "filter_output_records": result.counters().get(
                        "fsjoin.filter", "candidates_emitted"
                    ),
                    "results": len(result.pairs),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table(
        f"table4_{name}",
        rows,
        f"Table IV ({name}) — filter job candidate pairs emitted, θ={THETA}",
    )

    outputs = {row["filters"]: row["filter_output_records"] for row in rows}
    # Filters only ever remove candidate records relative to StrL alone.
    for label in outputs:
        assert outputs[label] <= outputs["StrL"], label
    # SegI subsumes SegL; All is the strongest combination.
    assert outputs["StrL+SegI"] <= outputs["StrL+SegL"]
    assert outputs["All"] == min(outputs.values())
    # Pruning never changes the answers.
    assert len({row["results"] for row in rows}) == 1
