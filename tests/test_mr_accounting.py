"""Accounting identity: the volumes and counters of one small FS-Join.

A pair is sized once, when a task emits it, and shuffle / reducer-input
volumes are sums of the map tasks' per-partition totals.  ``EXPECTED`` was
recorded from the commit *before* that change, when the runtime still
re-walked every shuffled value, so these tests pin the single-pass
accounting to the multi-pass one — on every executor, through the
combiner (the ordering and verification jobs both combine: their map
tasks put out fewer records than they took in), and when an attempt's
work is thrown away by a retry or a lost speculative race.

The filter job's reduce output and the verification job were re-recorded
when partial counts became *stripes* (one record per probing segment, not
one per pair) and StrL a length window; ``PAIR_LAYOUT`` keeps what the
one-record-per-pair layout read, and ``test_relations_to_the_pair_layout``
states what moved and what may not:

* ``pairs_considered`` counts the pairs the filter battery ran on — the
  old value minus the old ``pruned_strl``, exactly, since a pair outside
  the window is no longer enumerated;
* ``pruned_strl`` counts the admissible segment pairs the window excluded
  (a property of the fragment, the same for every join method);
* ``stripes_emitted`` counts the records the reducers emit,
  ``candidates_emitted`` the pairs inside them.

The filter counters were re-recorded once more when the prefix join
began taking a pair's intersection from its own scan whenever both
segments' prefixes are the whole segment; ``BEFORE_SCAN_COUNTS`` keeps
what they read while every pair was merged, and
``test_relations_to_the_scan_counts`` states the move: the pairs the
merge's opening bound abandoned (``pruned_overlap_bound``) are pruned by
Lemma 3 or 4 on the exact count instead, and nothing else changes but the
token comparisons.

The ordering job and the filter job's map side and shuffle are the
literals recorded before, untouched — as is every volume.
"""

from __future__ import annotations

import pytest

from repro.core import FSJoin, FSJoinConfig
from repro.data import make_corpus
from repro.mapreduce import ClusterSpec, SimulatedCluster

SPEC = ClusterSpec(workers=2, map_slots=2, reduce_slots=3)

#: job -> shuffle (records, bytes); per task (input_records, input_bytes,
#: output_records, output_bytes); every ``fsjoin.*`` counter.
EXPECTED = {
    "fsjoin-ordering": {
        "shuffle": (3360, 26880),
        "map": [(30, 19740, 971, 7768), (30, 16140, 791, 6328),
                (30, 16590, 801, 6408), (30, 16220, 797, 6376)],
        "reduce": [(526, 4208, 330, 2640), (533, 4264, 327, 2616),
                   (573, 4584, 343, 2744), (630, 5040, 377, 3016),
                   (579, 4632, 342, 2736), (519, 4152, 308, 2464)],
        "counters": {},
    },
    "fsjoin-filter": {
        "shuffle": (5948, 148065),
        "map": [(30, 19740, 1496, 37488), (30, 16140, 1520, 37830),
                (30, 16590, 1347, 33597), (30, 16220, 1585, 39150)],
        "reduce": [(990, 24567, 267, 4364), (933, 23496, 287, 5283),
                   (960, 24468, 343, 6721), (1003, 24846, 371, 7683),
                   (996, 25260, 374, 8201), (1066, 25428, 416, 9015)],
        "counters": {
            "fsjoin.map": {
                "records": 120, "segments": 5948, "horizontal_replicas": 147,
            },
            "fsjoin.filter": {
                "pairs_considered": 11487,
                "pruned_strl": 11651,
                "verify_token_comparisons": 22,
                "candidates_emitted": 9591,
                "stripes_emitted": 2058,
                "pruned_segl": 1277,
                "pruned_segi": 619,
            },
        },
    },
    "fsjoin-verify": {
        "shuffle": (449, 18082),
        "map": [(515, 8840, 107, 3793), (515, 10000, 112, 4348),
                (514, 11216, 114, 4834), (514, 11211, 116, 5107)],
        "reduce": [(69, 2689, 4, 56), (70, 2718, 0, 0), (83, 3447, 4, 56),
                   (69, 2853, 3, 42), (72, 2947, 0, 0), (86, 3428, 6, 84)],
        "counters": {"fsjoin.verify": {"candidates": 1483, "results": 17}},
    },
}

#: What the filter counters read while the prefix join still merged every
#: pair it found, before whole-prefix pairs took the scan's count.
BEFORE_SCAN_COUNTS = {
    "pairs_considered": 11487,
    "pruned_strl": 11651,
    "verify_token_comparisons": 25122,
    "candidates_emitted": 9591,
    "stripes_emitted": 2058,
    "pruned_segl": 1277,
    "pruned_overlap_bound": 438,
    "pruned_segi": 181,
}

#: What the one-record-per-pair layout recorded for the same join.
PAIR_LAYOUT = {
    "fsjoin.filter": {
        "pairs_considered": 16400,
        "pruned_strl": 4913,
        "verify_token_comparisons": 25122,
        "candidates_emitted": 9591,
        "pruned_segl": 1277,
        "pruned_overlap_bound": 438,
        "pruned_segi": 181,
    },
    "filter_reduce_output_records": 9591,
    "verify_shuffle": (5212, 67856),
}


def _volumes(task):
    return (
        task.input_records, task.input_bytes,
        task.output_records, task.output_bytes,
    )


def _snapshot(result):
    return {
        job.metrics.job_name: {
            "shuffle": (job.metrics.shuffle_records, job.metrics.shuffle_bytes),
            "map": [_volumes(task) for task in job.metrics.map_tasks],
            "reduce": [_volumes(task) for task in job.metrics.reduce_tasks],
            "counters": {
                group: names
                for group, names in job.counters.as_dict().items()
                if group.startswith("fsjoin.")
            },
        }
        for job in result.job_results
    }


def _join(**cluster_kwargs):
    records = make_corpus("wiki", 120, seed=3)
    config = FSJoinConfig(theta=0.8, n_vertical=30, n_horizontal=10)
    return FSJoin(config, SimulatedCluster(SPEC, **cluster_kwargs)).run(records)


def _first_attempt_of_task_one_dies(phase, task_id, attempt):
    return task_id == 1 and attempt == 1


def _map_task_zero_straggles(phase, task_id, attempt):
    """Primary attempts of map task 0 crawl; its backups (attempt ≥ 1000) fly."""
    return 0.5 if phase == "map" and task_id == 0 and attempt < 1000 else 0.0


class TestAccountingIdentity:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_matches_recorded_volumes(self, executor):
        assert _snapshot(_join(executor=executor)) == EXPECTED

    def test_retried_attempts_do_not_leak(self):
        result = _join(failure_injector=_first_attempt_of_task_one_dies)
        for job in result.job_results:
            assert job.counters.get("mapreduce", "map_task_retries") == 1
            assert job.counters.get("mapreduce", "reduce_task_retries") == 1
        assert _snapshot(result) == EXPECTED

    def test_speculative_loser_does_not_leak(self):
        result = _join(straggler_injector=_map_task_zero_straggles)
        for job in result.job_results:
            assert job.counters.get("mapreduce", "map_speculative_wins") == 1
        assert _snapshot(result) == EXPECTED

    def test_relations_to_the_scan_counts(self):
        _, filtering, _ = _join().job_results
        new = filtering.counters.as_dict()["fsjoin.filter"]
        assert new == EXPECTED["fsjoin-filter"]["counters"]["fsjoin.filter"]
        old = BEFORE_SCAN_COUNTS
        # A pair of whole-prefix segments is no longer merged, so the
        # merge's opening bound no longer abandons it: Lemma 3 or 4 prunes
        # it on the scan's exact count instead.
        pruned = ("pruned_segi", "pruned_segd", "pruned_overlap_bound")
        assert sum(new.get(name, 0) for name in pruned) == sum(
            old.get(name, 0) for name in pruned
        )
        assert "pruned_overlap_bound" not in new
        assert new["verify_token_comparisons"] < old["verify_token_comparisons"]
        moved = set(pruned) | {"verify_token_comparisons"}
        assert {k: v for k, v in new.items() if k not in moved} == {
            k: v for k, v in old.items() if k not in moved
        }

    def test_relations_to_the_pair_layout(self):
        ordering, filtering, verify = _join().job_results
        new = filtering.counters.as_dict()["fsjoin.filter"]
        stripes, old = BEFORE_SCAN_COUNTS, PAIR_LAYOUT["fsjoin.filter"]
        # The battery runs on exactly the pairs StrL used to let through;
        # what each later filter prunes, merges and keeps is untouched.
        assert stripes["pairs_considered"] == old["pairs_considered"] - old["pruned_strl"]
        moved = {"pairs_considered", "pruned_strl", "stripes_emitted"}
        assert {k: v for k, v in stripes.items() if k not in moved} == {
            k: v for k, v in old.items() if k not in moved
        }
        # The same candidates, in a fifth of the records ...
        reduce_out = sum(t.output_records for t in filtering.metrics.reduce_tasks)
        assert reduce_out == new["stripes_emitted"] == len(filtering.output)
        assert new["candidates_emitted"] == PAIR_LAYOUT["filter_reduce_output_records"]
        assert sum((len(stripe) - 1) // 3 for _, stripe in filtering.output) == 9591
        # ... which the verification combiner merges per owner and map task.
        verify_in = sum(t.input_records for t in verify.metrics.map_tasks)
        assert verify_in == new["stripes_emitted"]
        owners_per_task = start = 0
        for task in verify.metrics.map_tasks:
            split = filtering.output[start : start + task.input_records]
            owners_per_task += len({owner for owner, _ in split})
            start += task.input_records
        assert verify.metrics.shuffle_records == owners_per_task == 449
        old_records, old_bytes = PAIR_LAYOUT["verify_shuffle"]
        assert verify.metrics.shuffle_records * 10 < old_records
        assert verify.metrics.shuffle_bytes * 3 < old_bytes

    def test_shuffle_is_the_sum_of_both_sides(self):
        for job in _join().job_results:
            metrics = job.metrics
            assert (
                metrics.shuffle_records
                == sum(task.output_records for task in metrics.map_tasks)
                == sum(task.input_records for task in metrics.reduce_tasks)
            )
            assert (
                metrics.shuffle_bytes
                == sum(task.output_bytes for task in metrics.map_tasks)
                == sum(task.input_bytes for task in metrics.reduce_tasks)
            )
