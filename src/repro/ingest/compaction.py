"""Leveled compaction over segment generations, with pivot re-derivation.

Flushes produce many small level-0 generations; every probe pays one
candidate scan per live generation, so the read amplification grows with
the flush count.  :class:`LeveledPolicy` bounds it the LSM way: when a
level accumulates ``fanout`` generations they are merged into a single
generation one level up, keeping the live set logarithmic in the number
of flushes.

Merging is deliberately boring — and that is the correctness argument:
the merged index is built by handing every constituent record, in
ascending rid order, to the standard ``SegmentIndex`` insert path, under
the same shared order and the merge's partitioner.  That path keeps the
columns in the order given and posts them shortest record first, so the
merge's seal is a plain concatenation and the merged generation is
*structurally* identical (equal pickle bytes) to a fresh index built from
the same records, which the chaos drill asserts directly.  What is merged
is each record's stored id column, not its
tokens: ids are append-only under the shared order, so decoding a column
to strings only to intern them again would return the same column, and
the insert path re-splits it under whatever cuts the merge was given.
Gathering fans out per generation through the pluggable executors, and
the serial path stays the deterministic default.

Pivot re-derivation answers the skew question the ROADMAP imports from
the adaptive-join and MapReduce-limits papers: batch-appended tokens are
interned *after* every existing id, so they all land in the last
fragment and the Even-TF balance the original cuts were chosen for
drifts.  :func:`pivot_drift` measures the coefficient of variation of
per-fragment term-frequency mass under the current cuts and compares it
with a freshly selected pivot set; when the current skew passes the
threshold and re-cutting would actually help, the streaming index runs a
*major* compaction that rebuilds one top-level generation under the new
cuts and bumps the pivot epoch in the manifest.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.core.ordering import GlobalOrder
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import PivotMethod, select_pivots
from repro.ingest.generations import Generation
from repro.mapreduce.executors import TaskExecutor
from repro.service.index import SegmentIndex


@dataclass(frozen=True)
class CompactionPlan:
    """One merge the policy wants: ``gen_ids`` (level ``level``) → level+1."""

    level: int
    gen_ids: Tuple[int, ...]

    @property
    def output_level(self) -> int:
        return self.level + 1


@dataclass(frozen=True)
class LeveledPolicy:
    """Merge a level when it holds ``fanout`` or more generations."""

    fanout: int = 4

    def plan(self, generations: Sequence[Generation]) -> Optional[CompactionPlan]:
        """The lowest over-full level's merge, or ``None`` when in shape.

        Lowest level first: level-0 runs are the smallest and the most
        numerous, so draining them first buys the biggest read-
        amplification win per merged byte.
        """
        by_level: dict = {}
        for gen in generations:
            by_level.setdefault(gen.level, []).append(gen.gen_id)
        for level in sorted(by_level):
            ids = by_level[level]
            if len(ids) >= self.fanout:
                return CompactionPlan(level, tuple(sorted(ids)))
        return None


def gather_columns(
    generations: Sequence[Generation], executor: TaskExecutor
) -> List[Tuple[int, array]]:
    """Every record of ``generations`` as ``(rid, id column)``, ascending
    rid, gathered in parallel.

    The columns are the generations' own (ids are append-only under the
    shared order, so a stored column is what re-encoding the record's
    tokens would return).  ``run_tasks`` returns per-generation lists in
    task-index order, so the gather is deterministic for any executor
    backend; rids are disjoint across generations, so one final sort
    yields the global order.
    """
    def one(gen: Generation) -> List[Tuple[int, array]]:
        return list(gen.index._ranks.items())

    per_gen = executor.run_tasks(one, list(generations))
    merged = [column for chunk in per_gen for column in chunk]
    merged.sort(key=itemgetter(0))
    return merged


def merge_generations(
    generations: Sequence[Generation],
    order: GlobalOrder,
    partitioner: VerticalPartitioner,
    pivot_method: PivotMethod,
    executor: TaskExecutor,
) -> SegmentIndex:
    """Build the merged index for a plan's input generations."""
    merged = SegmentIndex(order, partitioner, pivot_method)
    merged._insert_columns(gather_columns(generations, executor))
    merged._seal()
    return merged


def fragment_mass_cv(
    rank_frequencies: Sequence[int], cuts: Sequence[int]
) -> float:
    """Coefficient of variation of per-fragment term-frequency mass.

    The balance objective Even-TF pivots optimize, measured on the
    *current* (possibly extended) vocabulary: 0 means perfectly even,
    larger means the cuts no longer fit the frequency distribution.
    """
    bounds = [0] + [int(c) for c in cuts] + [len(rank_frequencies)]
    masses = [
        float(sum(rank_frequencies[bounds[i]:bounds[i + 1]]))
        for i in range(len(bounds) - 1)
    ]
    if len(masses) < 2:
        return 0.0
    mean = sum(masses) / len(masses)
    if mean == 0:
        return 0.0
    variance = sum((m - mean) ** 2 for m in masses) / len(masses)
    return (variance ** 0.5) / mean


def pivot_drift(
    order: GlobalOrder,
    cuts: Sequence[int],
    pivot_method: PivotMethod,
    pivot_seed: int = 0,
    threshold: float = 0.35,
) -> Optional[Tuple[int, ...]]:
    """Fresh cuts when skew drifted past ``threshold``, else ``None``.

    Re-derivation must pay for itself: the current imbalance has to
    exceed the threshold *and* the freshly selected pivot set has to be
    measurably better (under the same balance metric) before a major
    compaction is worth forcing.
    """
    frequencies = order.rank_frequencies
    current_cv = fragment_mass_cv(frequencies, cuts)
    if current_cv <= threshold:
        return None
    fresh = select_pivots(
        frequencies, len(cuts) + 1, method=pivot_method, seed=pivot_seed
    )
    if tuple(fresh) == tuple(cuts):
        return None
    if fragment_mass_cv(frequencies, fresh) >= current_cv:
        return None
    return tuple(fresh)
