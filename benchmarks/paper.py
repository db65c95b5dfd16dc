"""The paper's evaluation (Section VI): one registry entry per table, figure or extension.

An entry runs its experiment on miniature synthetic corpora (DESIGN.md §1),
names the columns of its rows that are exact (counts, bytes, CVs, DNF
flags, result counts) and those that are timed, and has a shape check:
who wins, what is monotone, what DNFs — never an absolute number.

    python benchmarks/paper.py              # every entry; rewrites results/paper.md
    python benchmarks/paper.py fig12 lemma5 # the named entries only; writes nothing

Both print every table with its timing columns and exit 1 naming each
failed shape check.  ``results/paper.md`` holds only the exact columns, so
an unchanged tree rewrites it byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import random
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.calibration import PAPER_SCALE  # noqa: E402
from repro.analysis.duplication import duplication_report  # noqa: E402
from repro.analysis.loadbalance import load_balance_report  # noqa: E402
from repro.analysis.report import format_table  # noqa: E402
from repro.approx import DistributedLSHJoin, LSHJoin, evaluate_approximate  # noqa: E402
from repro.baselines import MassJoin, RIDPairsPPJoin, VSmartJoin  # noqa: E402
from repro.baselines.allpairs import allpairs  # noqa: E402
from repro.baselines.ppjoin import (  # noqa: E402
    JoinStats, encode_by_frequency, ppjoin, ppjoin_plus, ppjoin_self_join,
)
from repro.chaos import run_cluster_scenario, run_join_scenario, run_search_scenario  # noqa: E402
from repro.cluster import build_cluster  # noqa: E402
from repro.core import FSJoin, FSJoinConfig, FilterConfig, JoinMethod, PivotMethod  # noqa: E402
from repro.core.horizontal import build_horizontal_plan  # noqa: E402
from repro.data import make_corpus  # noqa: E402
from repro.data.datasets import sample  # noqa: E402
from repro.data.stats import dataset_stats  # noqa: E402
from repro.data.synthetic import WIKI_LIKE, generate  # noqa: E402
from repro.data.textlike import topic_corpus  # noqa: E402
from repro.errors import ExecutionError  # noqa: E402
from repro.gateway import GatewayRequest, SimilarityGateway  # noqa: E402
from repro.mapreduce.costmodel import lemma5_cost  # noqa: E402
from repro.mapreduce.counters import Counters  # noqa: E402
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster  # noqa: E402
from repro.observability import Tracer  # noqa: E402
from repro.service import SegmentIndex  # noqa: E402
from repro.similarity.functions import SimilarityFunction  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results" / "paper.md"

#: The paper's cluster: 10 workers × 3 reduce slots.  Stateless between
#: runs, so every entry shares it.
DEFAULT_CLUSTER = ClusterSpec(workers=10)
CLUSTER = SimulatedCluster(DEFAULT_CLUSTER)

@dataclasses.dataclass
class Entry:
    """One table, figure or extension of the evaluation."""

    title: str
    rows: Callable[[], List[dict]]
    exact: Sequence[str]
    timed: Sequence[str]
    check: Callable[[List[dict]], None]


ENTRIES: Dict[str, Entry] = {}


def entry(rows: Callable[[], List[dict]], title: str, exact: Sequence[str],
          timed: Sequence[str] = ()):
    """Register the decorated shape check with its rows function; the
    entry is named after ``rows``."""
    def register(check: Callable[[List[dict]], None]):
        ENTRIES[rows.__name__] = Entry(title, rows, exact, timed, check)
        return check
    return register


@functools.lru_cache(maxsize=None)
def corpus(name: str, n_records: int, seed: int = 7):
    """Cached synthetic corpus (generation is the slow part of small runs)."""
    return make_corpus(name, n_records, seed=seed)


def run_algorithm(algorithm, records):
    """Run one join: ``(standard row, PipelineResult or None)``.

    A budget-guarded DNF (the paper's "cannot run successfully") is a row
    with ``dnf`` set, nothing measured and no result.
    """
    name = getattr(algorithm, "algorithm_name", type(algorithm).__name__)
    try:
        result, wall = measure(algorithm.run, records)
    except ExecutionError:
        return {"algorithm": name, "dnf": True}, None
    return {
        "algorithm": name, "dnf": False, "wall_s": wall,
        "results": len(result.pairs),
        "shuffle_mb": result.total_shuffle_bytes() / 1e6,
        "sim_paper_s": result.simulated_time(DEFAULT_CLUSTER, PAPER_SCALE).total_s,
    }, result


def fsjoin(cluster=CLUSTER, **config) -> FSJoin:
    return FSJoin(FSJoinConfig(**config), cluster)


def filter_counter(result, name: str) -> int:
    return result.counters().get("fsjoin.filter", name)


def reduce_cpu(metrics) -> float:
    return sum(task.compute_seconds for task in metrics.reduce_tasks)


def measure(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


def by(rows: List[dict], *keys: str) -> Dict[Any, dict]:
    """Index rows by one key (a value) or several (a tuple)."""
    return {row[keys[0]] if len(keys) == 1 else tuple(map(row.get, keys)): row for row in rows}


def groups(rows: List[dict], key: str = "dataset") -> Dict[Any, List[dict]]:
    """Rows split by ``key``, in first-seen order."""
    out: Dict[Any, List[dict]] = {}
    for row in rows:
        out.setdefault(row[key], []).append(row)
    return out


def one_answer(rows: List[dict], key: str = "results") -> None:
    values = {row[key] for row in rows}
    assert len(values) == 1, f"{key} differ: {sorted(map(str, values))}"


def table1():
    rows = []
    for algorithm, kernel_index in (  # (algorithm, index of its kernel job)
        (fsjoin(theta=0.8, n_vertical=30), 1),
        (RIDPairsPPJoin(0.8, cluster=CLUSTER), 1),
        (VSmartJoin(0.8, cluster=CLUSTER, max_intermediate_pairs=None), 0),
        (MassJoin(0.8, cluster=CLUSTER, max_signatures=None), 1),
    ):
        result = algorithm.run(corpus("email", 250))
        kernel = result.job_results[kernel_index].metrics
        duplication = duplication_report(kernel)
        rows.append({
            "algorithm": result.algorithm, "jobs": len(result.job_results),
            "dup_records": duplication.record_factor, "dup_bytes": duplication.byte_factor,
            "reduce_cv": load_balance_report(kernel).cv,
            "shuffle_mb": result.total_shuffle_bytes() / 1e6, "results": len(result.pairs),
        })
    return rows


@entry(table1, "Table I — duplication & load balance, measured (email n=250, θ=0.8)",
       exact=("algorithm", "jobs", "dup_records", "dup_bytes", "reduce_cv",
              "shuffle_mb", "results"))
def _(rows):
    key = by(rows, "algorithm")
    # Duplicate-free: FS-Join's kernel replicates no payload (segInfo
    # overhead only); every prefix-keyed baseline replicates records.
    assert key["FS-Join-V"]["dup_bytes"] < 1.6
    for name in ("RIDPairsPPJoin", "MassJoin-Merge"):
        assert key[name]["dup_records"] > 1.5, name
    # Load balancing: Even-TF fragments beat the token-keyed kernel.
    assert key["FS-Join-V"]["reduce_cv"] < key["V-Smart-Join"]["reduce_cv"]
    one_answer(rows)


#: The paper's Table III (record count, mean length; Email's is unpublished).
PAPER_TABLE3 = {"email": (517_401, "-"), "pubmed": (7_400_308, 80.39),
                "wiki": (4_305_022, 55.95)}


def table3():
    rows = []
    for name, size in {"email": 400, "pubmed": 600, "wiki": 600}.items():
        stats = dataset_stats(corpus(name, size))
        paper_records, paper_mean = PAPER_TABLE3[name]
        rows.append({"dataset": name, **stats.as_row(), "_stats": stats,
                     "paper_records": paper_records, "paper_mean_len": paper_mean})
    return rows


@entry(table3, "Table III — dataset statistics (synthetic vs paper)",
       exact=("dataset", "records", "tokens", "vocab", "size_mb", "min_len", "max_len",
              "mean_len", "top_token_share", "paper_records", "paper_mean_len"))
def _(rows):
    email, pubmed, wiki = (row["_stats"] for row in rows)
    # The relative length structure of the paper's corpora.
    assert email.mean_len > pubmed.mean_len > wiki.mean_len
    assert email.max_len > 3 * email.mean_len  # heavy tail
    assert all(stats.vocab_size > 100 for stats in (email, pubmed, wiki))


def table4():
    """Cells are ``fsjoin.filter.candidates_emitted``: the filter job's
    output *records* are stripes, one per probing segment, not pairs.
    "StrL+Prefix" swaps the index join for the prefix join."""
    rows = []
    for name, size in {"email": 300, "pubmed": 400, "wiki": 400}.items():
        for label, filters, join_method in (
            ("StrL", FilterConfig.only("strl"), JoinMethod.INDEX),
            ("StrL+SegL", FilterConfig.only("strl", "segl"), JoinMethod.INDEX),
            ("StrL+SegI", FilterConfig.only("strl", "segi"), JoinMethod.INDEX),
            ("StrL+SegD", FilterConfig.only("strl", "segd"), JoinMethod.INDEX),
            ("StrL+Prefix", FilterConfig.only("strl"), JoinMethod.PREFIX),
            ("All", FilterConfig(), JoinMethod.PREFIX),
        ):
            result = fsjoin(theta=0.8, n_vertical=30, filters=filters,
                            join_method=join_method).run(corpus(name, size))
            rows.append({"dataset": name, "filters": label,
                         "filter_output_records": filter_counter(result, "candidates_emitted"),
                         "results": len(result.pairs)})
    return rows


@entry(table4, "Table IV — filter-job candidate pairs per filter combination, θ=0.8",
       exact=("dataset", "filters", "filter_output_records", "results"))
def _(rows):
    for name, same in groups(rows).items():
        out = {row["filters"]: row["filter_output_records"] for row in same}
        # Every combination prunes relative to StrL alone; SegI subsumes
        # SegL; All is the strongest; pruning never changes the answers.
        assert all(value <= out["StrL"] for value in out.values()), name
        assert out["StrL+SegI"] <= out["StrL+SegL"], name
        assert out["All"] == min(out.values()), name
        one_answer(same)


def fig6():
    """The budgets are calibrated so the quadratic / duplicating baselines
    exceed them (the paper's "cannot run successfully").  V-Smart's
    enumeration volume is θ-independent, so it fails everywhere;
    MassJoin's signature count shrinks sharply as θ → 1, so its failures
    concentrate at practical thresholds on the long-record corpora."""
    rows = []
    for name, size in {"email": 400, "pubmed": 600, "wiki": 600}.items():
        for theta in (0.75, 0.85, 0.95):
            for algorithm in (
                fsjoin(theta=theta, n_vertical=30, n_horizontal=10),
                RIDPairsPPJoin(theta, cluster=CLUSTER),
                VSmartJoin(theta, cluster=CLUSTER, max_intermediate_pairs=400_000),
                MassJoin(theta, cluster=CLUSTER, max_signatures=600_000),
            ):
                row, result = run_algorithm(algorithm, corpus(name, size))
                if result is not None:
                    row["_kernel_map_records"] = result.job_results[1].metrics.map_output_records
                rows.append({"dataset": name, "theta": theta, **row})
    return rows


@entry(fig6, "Fig 6 — runtime vs threshold, big datasets (MassJoin / V-Smart budgeted)",
       exact=("dataset", "theta", "algorithm", "dnf", "shuffle_mb", "results"),
       timed=("wall_s", "sim_paper_s"))
def _(rows):
    key = by(rows, "dataset", "theta", "algorithm")
    for name in ("email", "pubmed", "wiki"):
        for theta in (0.75, 0.85, 0.95):
            fs, rid = key[name, theta, "FS-Join"], key[name, theta, "RIDPairsPPJoin"]
            # Both completers run and agree; V-Smart DNFs at every θ.
            assert not fs["dnf"] and not rid["dnf"], (name, theta)
            assert fs["results"] == rid["results"], (name, theta)
            assert key[name, theta, "V-Smart-Join"]["dnf"], (name, theta)
            # On the long-record corpus FS-Join shuffles less and finishes
            # first (duplication grows with prefix length).
            if name == "email":
                assert fs["shuffle_mb"] < rid["shuffle_mb"], theta
                assert fs["sim_paper_s"] < rid["sim_paper_s"], theta
        # Lower θ → longer prefixes → more RIDPairs duplication.
        assert (key[name, 0.75, "RIDPairsPPJoin"]["_kernel_map_records"]
                > key[name, 0.95, "RIDPairsPPJoin"]["_kernel_map_records"]), name
        # MassJoin's partner-length enumeration explodes on long records.
        if name in ("email", "pubmed"):
            assert key[name, 0.75, "MassJoin-Merge"]["dnf"], name


def fig7():
    rows = []
    for name, size in {"email": 120, "pubmed": 150, "wiki": 150}.items():
        for theta in (0.75, 0.95):
            for algorithm in (
                fsjoin(theta=theta, n_vertical=30, n_horizontal=5),
                RIDPairsPPJoin(theta, cluster=CLUSTER),
                VSmartJoin(theta, cluster=CLUSTER, max_intermediate_pairs=None),
                MassJoin(theta, cluster=CLUSTER, max_signatures=None),
                MassJoin(theta, cluster=CLUSTER, variant="merge+light", max_signatures=None),
            ):
                row, _ = run_algorithm(algorithm, corpus(name, size))
                rows.append({"dataset": name, "theta": theta, **row})
    return rows


@entry(fig7, "Fig 7 — all five algorithms, small datasets",
       exact=("dataset", "theta", "algorithm", "shuffle_mb", "results"),
       timed=("wall_s", "sim_paper_s"))
def _(rows):
    key = by(rows, "dataset", "theta", "algorithm")
    for name in ("email", "pubmed", "wiki"):
        for theta in (0.75, 0.95):
            # All five complete on small data and agree on results.
            same = [row for row in rows if (row["dataset"], row["theta"]) == (name, theta)]
            assert not any(row["dnf"] for row in same), (name, theta)
            one_answer(same)
            # Merge+Light shuffles less than Merge (the point of Light).
            assert (key[name, theta, "MassJoin-Merge+Light"]["shuffle_mb"]
                    < key[name, theta, "MassJoin-Merge"]["shuffle_mb"]), (name, theta)
        # V-Smart's intermediate volume is θ-insensitive, while MassJoin's
        # signature count collapses as θ → 1.
        assert (round(key[name, 0.75, "V-Smart-Join"]["shuffle_mb"], 6)
                == round(key[name, 0.95, "V-Smart-Join"]["shuffle_mb"], 6)), name
        assert (key[name, 0.95, "MassJoin-Merge"]["shuffle_mb"]
                < key[name, 0.75, "MassJoin-Merge"]["shuffle_mb"]), name


def fig8():
    rows = []
    for name, size in {"email": 400, "wiki": 600}.items():
        for scale in (0.4, 0.6, 0.8, 1.0):
            row, _ = run_algorithm(fsjoin(theta=0.8, n_vertical=30, n_horizontal=5),
                                   sample(corpus(name, size), scale, seed=1))
            rows.append({"dataset": name, "scale": f"{int(scale * 10)}X", **row})
    return rows


@entry(fig8, "Fig 8 — FS-Join vs data scale (40/60/80/100% samples), θ=0.8",
       exact=("dataset", "scale", "shuffle_mb", "results"), timed=("wall_s", "sim_paper_s"))
def _(rows):
    for name, same in groups(rows).items():
        walls = [row["wall_s"] for row in same]
        shuffles = [row["shuffle_mb"] for row in same]
        # Cost grows with scale, below the quadratic worst case (6.25×
        # from 4X to 10X).
        assert shuffles == sorted(shuffles), name
        assert walls[0] < walls[-1] < walls[0] * (1.0 / 0.4) ** 2, (name, walls)


def fig9():
    """Runs once per node count (the reduce-task count changes the actual
    partitioning) and replays the measured tasks through the time model.
    ``fragment_cpu_s`` is printed, not checked: total bookkeeping grows
    with the fragment count at miniature scale (EXPERIMENTS.md)."""
    rows = []
    for name, size in {"email": 300, "wiki": 500}.items():
        for workers in (5, 10, 15):
            spec = ClusterSpec(workers=workers)
            result = fsjoin(SimulatedCluster(spec), theta=0.8, n_vertical=3 * workers,
                            n_horizontal=5).run(corpus(name, size))
            times = result.simulated_time(spec, PAPER_SCALE)
            rows.append({
                "dataset": name, "workers": workers, "reduce_tasks": spec.default_reduce_tasks,
                "sim_paper_s": times.total_s, "shuffle_s": times.shuffle_s,
                "fragment_cpu_s": reduce_cpu(result.job_results[1].metrics),
                "results": len(result.pairs),
            })
    return rows


@entry(fig9, "Fig 9 — FS-Join vs worker count (reduce tasks = 3 × workers), θ=0.8",
       exact=("dataset", "workers", "reduce_tasks", "results"),
       timed=("sim_paper_s", "fragment_cpu_s", "shuffle_s"))
def _(rows):
    for name, same in groups(rows).items():
        one_answer(same)
        # Total and per-worker shuffle time both shrink as the cluster
        # grows (shuffle bandwidth and reduce lanes scale with it).
        for column in ("sim_paper_s", "shuffle_s"):
            values = [row[column] for row in same]
            assert values[0] > values[1] > values[2], (name, column, values)


def fig10():
    """The horizontal selector keeps only ratio-correct pivots (DESIGN.md
    §4.3), so large requested counts collapse to the largest sound count
    at miniature record lengths: ``h_effective``."""
    rows = []
    for name, size in {"email": 300, "pubmed": 500}.items():
        records = corpus(name, size)
        for n_horizontal in (1, 10, 50):
            algorithm = fsjoin(theta=0.8, n_vertical=30, n_horizontal=n_horizontal)
            result = algorithm.run(records)
            times = result.job_times(DEFAULT_CLUSTER, PAPER_SCALE)
            plan = build_horizontal_plan([r.size for r in records], n_horizontal, 0.8,
                                         algorithm.config.func)
            cpu = [sum(t.compute_seconds for t in job.metrics.map_tasks + job.metrics.reduce_tasks)
                   for job in result.job_results]
            rows.append({
                "dataset": name, "h_requested": n_horizontal, "h_effective": plan.n_base,
                "filter_s": times[1].total_s, "verify_s": times[2].total_s,
                "filter_cpu_s": cpu[1], "verify_cpu_s": cpu[2],
                "filter_pairs": filter_counter(result, "pairs_considered"),
                # The verify job's input records are stripes of these.
                "verify_candidates": filter_counter(result, "candidates_emitted"),
                "results": len(result.pairs),
            })
    return rows


@entry(fig10, "Fig 10 — phase times vs horizontal partitions, θ=0.8",
       exact=("dataset", "h_requested", "h_effective", "filter_pairs",
              "verify_candidates", "results"),
       timed=("filter_s", "verify_s", "filter_cpu_s", "verify_cpu_s"))
def _(rows):
    for name, same in groups(rows).items():
        one_answer(same)
        for row in same:
            # Verification aggregates far fewer records than the fragment
            # joins consider, and its CPU stays well below the filter
            # job's (a noise-tolerant factor: per-task timers pick up
            # scheduler jitter).
            assert row["verify_candidates"] < row["filter_pairs"], row
            assert row["verify_cpu_s"] < row["filter_cpu_s"] * 2.0, row
        # Sections spare the fragment joins no pair at any count: each
        # fragment is length-sorted, so StrL already skips those pairs.
        one_answer(same, "filter_pairs")


def fig11():
    rows = []
    for name, size in {"email": 250, "pubmed": 400, "wiki": 400}.items():
        for method in PivotMethod:
            row, result = run_algorithm(fsjoin(theta=0.8, n_vertical=30, pivot_method=method),
                                        corpus(name, size))
            balance = load_balance_report(result.job_results[1].metrics)
            rows.append({"dataset": name, "pivots": str(method), **row,
                         "reduce_cv": balance.cv, "max_over_mean": balance.max_over_mean})
    return rows


@entry(fig11, "Fig 11 — pivot selection methods, θ=0.8",
       exact=("dataset", "pivots", "reduce_cv", "max_over_mean", "results"),
       timed=("wall_s", "sim_paper_s"))
def _(rows):
    for name, same in groups(rows).items():
        one_answer(same)
        # Even-TF balances reducer input; Even-Interval puts the hot tail
        # of the ordering in the last fragment.
        cv = {row["pivots"]: row["reduce_cv"] for row in same}
        assert cv["even-tf"] < cv["even-interval"], (name, cv)


def fig12():
    """The safe segment prefix is ``min(|seg|, |s| − τ_min + 1)`` (DESIGN.md
    §4.1): it is shorter than the segment only at high θ and few
    partitions, the regime where the three methods differ.  A pair whose
    prefixes are both whole segments takes its count from the prefix scan
    as the index join does; ``verify_token_comparisons`` is what merging
    the cut pairs costs (0 for Index, which merges nothing)."""
    rows = []
    for name, size in {"email": 250, "pubmed": 400, "wiki": 400}.items():
        for method in JoinMethod:
            row, result = run_algorithm(fsjoin(theta=0.9, n_vertical=6, join_method=method),
                                        corpus(name, size))
            rows.append({
                "dataset": name, "join": str(method), **row,
                "join_cpu_s": reduce_cpu(result.job_results[1].metrics),
                "pairs_considered": filter_counter(result, "pairs_considered"),
                "verify_token_comparisons": filter_counter(result, "verify_token_comparisons"),
            })
    return rows


@entry(fig12, "Fig 12 — fragment join methods, θ=0.9, 6 vertical partitions",
       exact=("dataset", "join", "pairs_considered", "verify_token_comparisons", "results"),
       timed=("wall_s", "join_cpu_s"))
def _(rows):
    for name, same in groups(rows).items():
        one_answer(same)
        loop, index, prefix = (by(same, "join")[m] for m in ("loop", "index", "prefix"))
        # Prefix ⊆ Index ⊆ Loop in touched segment pairs, and the prefix
        # join merges fewer tokens than the loop join.  (Fragment-join CPU
        # is printed, not checked: at this scale it is within noise.)
        assert (prefix["pairs_considered"] <= index["pairs_considered"]
                < loop["pairs_considered"]), name
        assert prefix["verify_token_comparisons"] < loop["verify_token_comparisons"], name


def fig13():
    """Sections per dataset are the paper's (10 / 70 / 50).  Its speed-up
    needs spill modelling: this runtime never spills, and length-sorted
    fragments let StrL skip the pairs sections were meant to spare, so
    sections can only replicate segments."""
    rows = []
    for name, size, sections in (("email", 300, 10), ("pubmed", 500, 70), ("wiki", 500, 50)):
        for theta in (0.8, 0.9):
            for n_horizontal in (1, sections):
                row, result = run_algorithm(
                    fsjoin(theta=theta, n_vertical=30, n_horizontal=n_horizontal),
                    corpus(name, size))
                metrics = result.job_results[1].metrics
                rows.append({
                    "dataset": name, "theta": theta, **row,
                    "join_cpu_s": reduce_cpu(metrics),
                    "pairs_considered": filter_counter(result, "pairs_considered"),
                    "shuffle_bytes": result.total_shuffle_bytes(),
                    "replication_rate": metrics.duplication_byte_factor(),
                })
    return rows


@entry(fig13, "Fig 13 — FS-Join (paper's sections) vs FS-Join-V (none), 30 partitions",
       exact=("dataset", "theta", "algorithm", "pairs_considered", "shuffle_mb",
              "replication_rate", "results"),
       timed=("wall_s", "join_cpu_s"))
def _(rows):
    for plain, sections in zip(rows[::2], rows[1::2]):
        name, theta = sections["dataset"], sections["theta"]
        assert (plain["algorithm"], sections["algorithm"]) == ("FS-Join-V", "FS-Join")
        assert sections["results"] == plain["results"], (name, theta)
        # Sections spare no pair and replicate segments: a dominated
        # point on the replication-rate / reducer-size curve.
        assert sections["pairs_considered"] == plain["pairs_considered"], (name, theta)
        assert sections["shuffle_bytes"] >= plain["shuffle_bytes"], (name, theta)
        assert sections["replication_rate"] >= plain["replication_rate"], (name, theta)


def lemma5():
    """Lemma 5 models the loop join's reduce cost as ``N·(M·P/N)²·avg·C_r``
    with ``M·P/N`` the expected fragment size (``P`` segments per record),
    evaluated here with the *measured* ``P``.  ``replication_rate`` (r)
    against ``max_reducer_input_bytes`` (q) is the vision paper's curve:
    r rises with N, while q bottoms out at N = 30, the cluster's
    reduce-task count; past it, fragments share reducers."""
    records = corpus("wiki", 400)
    m = len(records)
    rows = []
    for n in (5, 15, 30, 60):
        result = fsjoin(theta=0.8, n_vertical=n, join_method=JoinMethod.LOOP).run(records)
        metrics = result.job_results[1].metrics
        segments = result.counters().get("fsjoin.map", "segments")
        measured_p = segments / m
        predicted_fragment = m * measured_p / n
        candidates = filter_counter(result, "candidates_emitted")
        rows.append({
            "n_partitions": n, "measured_P": measured_p,
            "fragment_size": segments / n, "predicted_fragment": predicted_fragment,
            # Every pair of a fragment: the ones the loop join ran the
            # filters on plus the ones its StrL window skipped.
            "measured_pairs": (filter_counter(result, "pairs_considered")
                               + filter_counter(result, "pruned_strl")),
            "predicted_pairs": n * predicted_fragment ** 2 / 2,
            "reduce_cpu_s": reduce_cpu(metrics),
            "analytic_cost": lemma5_cost(
                [record.size for record in records], n_partitions=n,
                token_probability=measured_p,
                candidate_fraction=candidates / (m * (m - 1) / 2),
                result_fraction=len(result.pairs) / max(1, candidates),
            ),
            "replication_rate": metrics.duplication_byte_factor(),
            "max_reducer_input_bytes": max(metrics.reduce_input_loads()),
            "results": len(result.pairs),
        })
    return rows


@entry(lemma5, "Lemma 5 — analytic vs measured loop-join filter cost, wiki n=400, θ=0.8",
       exact=("n_partitions", "measured_P", "fragment_size", "predicted_fragment",
              "measured_pairs", "predicted_pairs", "analytic_cost",
              "replication_rate", "max_reducer_input_bytes", "results"),
       timed=("reduce_cpu_s",))
def _(rows):
    one_answer(rows)
    for row in rows:
        # The fragment-size prediction is an identity given measured P:
        # the check guards the model's wiring.
        assert row["predicted_fragment"] > 0
        assert abs(row["fragment_size"] - row["predicted_fragment"]) < 1e-6, row
        # Pair counts within a small constant factor (fragment sizes vary
        # around the mean, so Σ C(f_i, 2) exceeds N·C(mean, 2): Jensen).
        ratio = row["measured_pairs"] / row["predicted_pairs"]
        assert 0.3 < ratio < 3.5, ratio
    # Analytic cost and measured CPU agree on the sweep's direction.
    cpu = [row["reduce_cpu_s"] for row in rows]
    analytic = [row["analytic_cost"] for row in rows]
    assert (cpu[-1] > cpu[0]) == (analytic[-1] > analytic[0]), (cpu, analytic)
    # More fragments replicate each record into more of them.
    rates = [row["replication_rate"] for row in rows]
    assert all(a < b for a, b in zip(rates, rates[1:])), rates


def ext_executor():
    """``thread`` ≈ serial for the pure-Python kernels (the GIL); ``process``
    approaches the core count once per-task compute dominates dispatch."""
    records = generate(dataclasses.replace(WIKI_LIKE, n_records=500, zipf_s=1.1), seed=5)
    rows = []
    for kind in ("serial", "thread", "process"):
        cluster = SimulatedCluster(ClusterSpec(workers=10, executor=kind))
        result, wall = measure(fsjoin(cluster, theta=0.75, n_vertical=30).run, records)
        outcome = (result.result_pairs, [job.output for job in result.job_results],
                   [job.counters.as_dict() for job in result.job_results])
        serial = rows[0] if rows else {"wall_s": wall, "_outcome": outcome}
        rows.append({"executor": kind, "wall_s": wall, "results": len(result.pairs),
                     "speedup_vs_serial": serial["wall_s"] / wall,
                     "identical": outcome == serial["_outcome"], "_outcome": outcome})
    return rows


@entry(ext_executor, "Executor backends, wiki-like Zipf(1.1) n=500, θ=0.75",
       exact=("executor", "identical", "results"), timed=("wall_s", "speedup_vs_serial"))
def _(rows):
    # Bit-identical outputs, counters and ordering on every backend.
    assert all(row["identical"] for row in rows)
    one_answer(rows)
    # Real speedup needs real cores: ≥4 must buy 1.5× over serial.
    if (os.cpu_count() or 1) >= 4:
        assert by(rows, "executor")["process"]["speedup_vs_serial"] >= 1.5


def ext_approx():
    records = corpus("wiki", 500)
    truth = ppjoin_self_join(records, 0.8)
    rows = []
    for num_perm in (16, 64, 256):
        join = LSHJoin(0.8, num_perm=num_perm, seed=7)
        (candidates, reported), wall = measure(
            lambda: (join.candidate_pairs(records), join.run(records)))
        rows.append({
            "num_perm": num_perm, "bands_x_rows": f"{join.bands}x{join.rows}", "wall_s": wall,
            "candidates": len(candidates),
            "candidate_frac": len(candidates) / (len(records) * (len(records) - 1) // 2),
            **evaluate_approximate(reported, truth).as_row(),
        })
    return rows


@entry(ext_approx, "MinHash-LSH vs exact join, wiki n=500, θ=0.8",
       exact=("num_perm", "bands_x_rows", "candidates", "candidate_frac", "true",
              "reported", "recall", "precision", "f1"),
       timed=("wall_s",))
def _(rows):
    # Verified mode never reports a false positive, LSH touches a tiny
    # slice of the pair space, and a healthy budget recovers most pairs.
    assert all(row["precision"] == 1.0 for row in rows)
    assert all(row["candidate_frac"] < 0.2 for row in rows)
    assert rows[-1]["recall"] > 0.7


def ext_approx_distributed():
    records = corpus("pubmed", 400)
    exact, result = run_algorithm(fsjoin(theta=0.8, n_vertical=30), records)
    truth = result.result_set()
    rows = [{**exact, "recall": 1.0, "precision": 1.0}]
    for num_perm in (32, 128):
        row, result = run_algorithm(
            DistributedLSHJoin(0.8, cluster=CLUSTER, num_perm=num_perm, seed=7), records)
        quality = evaluate_approximate(result.result_set(), truth)
        rows.append({**row, "algorithm": f"LSH-{num_perm}perm",
                     "recall": quality.recall, "precision": quality.precision})
    return rows


@entry(ext_approx_distributed, "Distributed LSH vs exact FS-Join, pubmed n=400, θ=0.8",
       exact=("algorithm", "shuffle_mb", "results", "recall", "precision"),
       timed=("wall_s", "sim_paper_s"))
def _(rows):
    exact, *lsh = rows
    # Verified LSH never reports a wrong pair and moves fewer bytes; a
    # healthy budget recovers most of the exact result set.
    assert all(row["precision"] == 1.0 for row in lsh)
    assert all(row["shuffle_mb"] < exact["shuffle_mb"] for row in lsh)
    assert lsh[-1]["recall"] > 0.7


def ext_chaos():
    rows = []
    for label, scenario, kwargs in (
        ("pipeline (kill+resume)", run_join_scenario, {"n_records": 120}),
        ("cluster (flap+breaker)", run_cluster_scenario, {}),
        ("service (corrupt+deadline)", run_search_scenario, {}),
    ):
        tracer = Tracer()
        report, wall = measure(scenario, 7, tracer=tracer, **kwargs)
        rows.append({
            "layer": label, "faults": sum(report.faults.values()),
            "fault_spans": sum(1 for span in tracer.spans() if span.phase == "fault"),
            "recovery_actions": sum(report.recovery.values()),
            "ok": report.ok, "exact": report.matched, "wall_s": wall,
            "_resumed_jobs": report.detail.get("resumed_jobs"),
        })
    return rows


@entry(ext_chaos, "Chaos drill by layer (seed 7, wiki n=120): faults vs recovery",
       exact=("layer", "faults", "fault_spans", "recovery_actions", "ok", "exact"),
       timed=("wall_s",))
def _(rows):
    # The robustness contract holds at every layer, and every layer both
    # injects faults and recovers (a drill that does neither proves
    # nothing).  Every fault has its audit span (routers add their own,
    # e.g. breaker trips), and resume skipped a checkpointed job.
    for row in rows:
        assert row["ok"] and row["faults"] > 0 and row["recovery_actions"] > 0, row
        assert row["fault_spans"] >= row["faults"], row
    assert rows[0]["_resumed_jobs"]


def ext_chaos_replay():
    rows = []
    for run in ("first", "replay"):
        report = run_join_scenario(7, n_records=120)
        rows.append({
            "run": run, "faults": sum(report.faults.values()),
            "recovery_actions": sum(report.recovery.values()),
            "resumed_jobs": ",".join(report.detail["resumed_jobs"]),
            "exact": report.matched, "_ok": report.ok, "_report": report.as_dict(),
        })
    return rows


@entry(ext_chaos_replay, "Chaos replay determinism (seed 7)",
       exact=("run", "faults", "recovery_actions", "resumed_jobs", "exact"))
def _(rows):
    # The same seed twice: identical faults, identical recovery report.
    first, replay = rows
    assert first["_report"] == replay["_report"]
    assert first["_ok"]


def serving(exponent: float, seed: int, n_probes: int = 120):
    """The serving extensions' index and a Zipf-popular probe mix over it."""
    records = corpus("wiki", 400)
    weights = [1.0 / (i + 1) ** exponent for i in range(len(records))]
    picks = random.Random(seed).choices(range(len(records)), weights=weights, k=n_probes)
    return SegmentIndex.build(records, n_vertical=8), [records[i].tokens for i in picks]


def ext_cluster():
    """Wall time is context only: an in-process cluster pays scatter
    overhead without real parallelism, so exactness and a narrow scatter
    set are the claims, never a speedup."""
    index, probes = serving(1.2, seed=13)
    expected, wall = measure(lambda: [index.probe(q, 0.6) for q in probes])
    rows = [{"serving": "single node", "shards": 1, "wall_s": wall,
             "avg_scatter": 1.0, "identical": "-"}]
    for n_shards in (1, 2, 4, 8):
        router = build_cluster(index, n_shards=n_shards, replication=2)
        got, wall = measure(lambda: [router.search(q, 0.6) for q in probes])
        scatter = (router.metrics.get("cluster.route", "shards_probed")
                   / max(1, router.metrics.get("cluster.route", "searches")))
        rows.append({"serving": f"cluster x{n_shards}", "shards": n_shards, "wall_s": wall,
                     "avg_scatter": round(scatter, 2), "identical": got == expected})
    return rows


@entry(ext_cluster, "Cluster vs single node, wiki n=400, 120 Zipf(1.2) probes, θ=0.6",
       exact=("serving", "shards", "avg_scatter", "identical"), timed=("wall_s",))
def _(rows):
    # Exact at every fan-out width; routing never broadcasts to all 8.
    assert all(row["identical"] is True for row in rows[1:])
    assert by(rows, "shards")[8]["avg_scatter"] < 8


def ext_cluster_rebalance():
    index, probes = serving(1.6, seed=29)
    expected = [index.probe(q, 0.6) for q in probes]
    router = build_cluster(index, n_shards=4, replication=2)
    before_hits = [router.search(q, 0.6) for q in probes]
    before = router.heat_report()
    moves = router.rebalance(skew_threshold=1.0, max_moves=8)
    after = router.heat_report()
    after_hits = [router.search(q, 0.6) for q in probes]
    return [
        {"phase": phase, "migrations": migrations, "heat_cv": round(heat.cv, 4),
         "max_over_mean": round(heat.max_over_mean, 4), "identical": hits == expected}
        for phase, migrations, heat, hits in (
            ("before rebalance", 0, before, before_hits),
            ("after rebalance", len(moves), after, after_hits),
        )
    ]


@entry(ext_cluster_rebalance, "Skew-aware rebalance (4 shards, Zipf(1.6) mix, θ=0.6)",
       exact=("phase", "migrations", "heat_cv", "max_over_mean", "identical"))
def _(rows):
    before, after = rows
    # Exact before and after; a migration lowers the observed skew.
    assert before["identical"] and after["identical"]
    if after["migrations"]:
        assert after["max_over_mean"] <= before["max_over_mean"]
        assert after["heat_cv"] < before["heat_cv"]


def ext_filter_power():
    """Lemmas 2–4 compare segment sizes against the overlap budget
    ``τ − min(heads) − min(tails)``, which goes positive only when a
    segment carries a real share of its record: the filters strengthen as
    the partition count drops.  Measured on a Zipf and a topic-clustered
    corpus (:mod:`repro.data.textlike`)."""
    rows = []
    for name, records in (("wiki", corpus("wiki", 400)), ("topic", topic_corpus(400, seed=7))):
        for n_vertical in (5, 10, 30):
            strl, full = (
                fsjoin(theta=0.8, n_vertical=n_vertical, filters=filters,
                       join_method=JoinMethod.INDEX).run(records)
                for filters in (FilterConfig.only("strl"), FilterConfig())
            )
            strl_only = filter_counter(strl, "candidates_emitted")
            kept = filter_counter(full, "candidates_emitted")
            rows.append({"corpus": name, "n_vertical": n_vertical, "strl_only": strl_only,
                         "all_filters": kept, "kept_fraction": kept / max(1, strl_only),
                         "results": len(strl.pairs)})
    return rows


@entry(ext_filter_power, "Segment-filter power vs partition count, θ=0.8",
       exact=("corpus", "n_vertical", "strl_only", "all_filters", "kept_fraction", "results"))
def _(rows):
    for name, same in groups(rows, "corpus").items():
        one_answer(same)
        # Bigger segments (fewer partitions) → stronger filters; at 5
        # partitions they prune most candidates.
        kept = [row["kept_fraction"] for row in same]
        assert kept[0] < kept[-1] and kept[0] < 0.5, (name, kept)


def ext_functions():
    rows = []
    for name in ("pubmed", "wiki"):
        for func in SimilarityFunction:
            row, result = run_algorithm(fsjoin(theta=0.8, func=func, n_vertical=30),
                                        corpus(name, 400))
            rows.append({"dataset": name, "func": func.value, **row,
                         "_pairs": result.result_set()})
    return rows


@entry(ext_functions, "Jaccard, Dice and Cosine end to end, θ=0.8",
       exact=("dataset", "func", "shuffle_mb", "results"), timed=("wall_s",))
def _(rows):
    for name, same in groups(rows).items():
        # J ≤ D ≤ C pointwise for sets ⇒ the result sets nest at a fixed θ.
        by_func = by(same, "func")
        jac, dice, cos = (by_func[f] for f in ("jaccard", "dice", "cosine"))
        assert jac["_pairs"] <= dice["_pairs"] <= cos["_pairs"], name
        assert jac["results"] <= dice["results"] <= cos["results"], name


def ext_inmemory():
    rows = []
    for name, size in {"email": 300, "wiki": 500}.items():
        encoded = encode_by_frequency(corpus(name, size))
        for label, join in (("AllPairs", allpairs), ("PPJoin", ppjoin), ("PPJoin+", ppjoin_plus)):
            stats = JoinStats()
            results, wall = measure(join, encoded, 0.8, stats=stats)
            rows.append({"dataset": name, "algorithm": label, "wall_s": wall,
                         "candidates": stats.candidates, "verifications": stats.verifications,
                         "suffix_pruned": stats.suffix_pruned, "results": len(results),
                         "_pairs": frozenset(results)})
    return rows


@entry(ext_inmemory, "In-memory filter lineage AllPairs → PPJoin → PPJoin+, θ=0.8",
       exact=("dataset", "algorithm", "candidates", "verifications", "suffix_pruned", "results"),
       timed=("wall_s",))
def _(rows):
    for name, same in groups(rows).items():
        # Identical answers; each successor verifies no more than its
        # ancestor.
        one_answer(same, "_pairs")
        allpairs_, ppjoin_, plus = (row["verifications"] for row in same)
        assert plus <= ppjoin_ <= allpairs_, name


QUERY_PROBES, QUERY_DISTINCT = 100, 60


def ext_query_service():
    """The gateway's result cache over a one-shard cluster (a warm pass
    probes nothing), and batched probing (each distinct probe token is
    looked up once; verification runs per query either way)."""
    records = corpus("wiki", 400)
    probes = [records[i % QUERY_DISTINCT].tokens for i in range(QUERY_PROBES)]
    index = SegmentIndex.build(records, n_vertical=8)
    gateway = SimilarityGateway(build_cluster(index, n_shards=1))
    rows = []
    for scenario in ("gateway, cold cache", "gateway, warm cache"):
        # One request wave per probe: repeats hit the cache instead of
        # coalescing with an in-flight twin.
        hits, wall = measure(lambda: [list(gateway.serve([GatewayRequest(tuple(q), 0.6)])[0].hits)
                                    for q in probes])
        rows.append({"scenario": scenario, "wall_s": wall, "lookups": "", "token_cmp": "",
                     "_hits": hits, "_gateway": gateway.metrics.group("gateway"),
                     "_probe": gateway.router.replica(0, 0).counters.group("service.probe")})
    sequential, batched = Counters(), Counters()
    for scenario, counters, run in (
        ("index.probe x100", sequential,
         lambda: [index.probe(q, 0.6, counters=sequential) for q in probes]),
        ("index.probe_batch", batched,
         lambda: index.probe_batch([index.encode_query(q) for q in probes], 0.6,
                                   counters=batched)),
    ):
        hits, wall = measure(run)
        rows.append({"scenario": scenario, "wall_s": wall, "_hits": hits,
                     "lookups": counters.get("service.probe", "posting_lookups"),
                     "token_cmp": counters.get("service.probe", "verify_token_comparisons")})
    for row in rows:
        row["speedup"] = rows[0]["wall_s"] / row["wall_s"]
    return rows


@entry(ext_query_service, "Cache and batching, wiki n=400, θ=0.6, 100 probes / 60 distinct",
       exact=("scenario", "lookups", "token_cmp"), timed=("wall_s", "speedup"))
def _(rows):
    cold, warm, seq, bat = rows
    # Every path answers every probe identically.
    assert cold["_hits"] == warm["_hits"] == seq["_hits"] == bat["_hits"]
    # The warm pass is pure cache hits: it probes nothing, so every
    # service.probe counter stands where the cold pass left it (the cold
    # pass already hits on its own repeats).
    assert warm["_gateway"]["dispatched"] == QUERY_DISTINCT
    assert warm["_gateway"]["cache_hits"] == 2 * QUERY_PROBES - QUERY_DISTINCT
    assert cold["_probe"]["probes"] == QUERY_DISTINCT
    assert warm["_probe"] == cold["_probe"]
    # Batching does strictly fewer posting lookups and the same
    # verification work.
    assert 0 < bat["lookups"] < seq["lookups"]
    assert bat["token_cmp"] == seq["token_cmp"]


def ext_skew():
    """Fig 11's mechanism: Even-Interval's load imbalance grows with skew
    (every hot occurrence lands in the last fragment); Even-TF's does not."""
    rows = []
    for zipf_s in (0.7, 1.1, 1.5):
        records = generate(dataclasses.replace(WIKI_LIKE, n_records=300, zipf_s=zipf_s), seed=3)
        for method in (PivotMethod.EVEN_INTERVAL, PivotMethod.EVEN_TF):
            result = fsjoin(theta=0.8, n_vertical=30, pivot_method=method).run(records)
            balance = load_balance_report(result.job_results[1].metrics)
            rows.append({"zipf_s": zipf_s, "pivots": str(method), "reduce_cv": balance.cv,
                         "max_over_mean": balance.max_over_mean, "results": len(result.pairs)})
    return rows


@entry(ext_skew, "Pivot balance vs Zipf exponent, wiki-like n=300, θ=0.8",
       exact=("zipf_s", "pivots", "reduce_cv", "max_over_mean", "results"))
def _(rows):
    for zipf_s, (interval, even_tf) in groups(rows, "zipf_s").items():
        # Identical answers; Even-TF at least as balanced at every skew.
        assert interval["results"] == even_tf["results"], zipf_s
        assert even_tf["reduce_cv"] <= interval["reduce_cv"] + 1e-9, zipf_s
    # Even-Interval degrades with skew; Even-TF stays far below it.
    key = by(rows, "zipf_s", "pivots")
    assert key[1.5, "even-interval"]["reduce_cv"] > key[0.7, "even-interval"]["reduce_cv"]
    assert key[1.5, "even-tf"]["reduce_cv"] < key[1.5, "even-interval"]["reduce_cv"] / 2


def run(name: str):
    """Run one entry and print its table: ``(rows or None, failure or None)``."""
    entry_ = ENTRIES[name]
    try:
        rows = entry_.rows()
    except Exception:  # report every entry, then exit 1
        traceback.print_exc()
        return None, f"{name}: rows raised (traceback above)"
    print(format_table(rows, title=f"{name}: {entry_.title}",
                       columns=[*entry_.exact, *entry_.timed]) + "\n", flush=True)
    try:
        entry_.check(rows)
    except AssertionError as exc:
        return rows, f"{name}: shape check failed: {exc}"
    return rows, None


def main(names: Sequence[str]) -> int:
    if not __debug__:
        print("the shape checks are asserts: run without -O", file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in ENTRIES]
    if unknown:
        print(f"unknown entries {unknown}; choose from: {', '.join(ENTRIES)}", file=sys.stderr)
        return 2
    outcomes = {name: run(name) for name in names or ENTRIES}
    if not names:  # the whole evaluation: rewrite its exact columns
        RESULTS.write_text("\n".join(
            ["# Paper evaluation: exact columns\n",
             "Written by `python benchmarks/paper.py`, which also prints the timing",
             "columns. Nothing here is timed, so an unchanged tree rewrites it byte",
             "for byte.\n"]
            + [f"## {name}\n\n{ENTRIES[name].title}\n\n```\n"
               f"{format_table(rows, columns=ENTRIES[name].exact)}\n```\n"
               for name, (rows, _) in outcomes.items() if rows is not None]
        ), encoding="utf-8")
    failures = [failure for _, failure in outcomes.values() if failure]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
