"""Horizontal (length-based) partitioning (paper Section V-A, Optimization).

With ``t`` length pivots ``L_1 < … < L_t`` the records are divided into
``2t + 1`` horizontal partitions:

* *base* partitions ``h_0 … h_t``: ``h_k`` holds records with
  ``L_k ≤ |s| < L_{k+1}`` (implicit ``L_0 = 0``, ``L_{t+1} = ∞``);
* *boundary* partitions ``h_{t+1} … h_{2t}``: ``h_{t+i}`` holds the records
  whose length is close enough to ``L_i`` that a similar pair can straddle
  the pivot; joins there are restricted to pairs with one record below and
  one at-or-above ``L_i``, which is what makes the scheme duplicate-free in
  its *results*.

Correctness constraint (DESIGN.md §4.3): a similar pair must never straddle
*two* pivots, so consecutive pivots must satisfy
``L_{i+1} > length_upper_bound(L_i − 1)``.  The builder selects equal-depth
pivots from the length histogram and greedily drops pivots violating the
constraint, so a requested partition count may be reduced; the effective
count is visible on the returned plan.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import length_lower_bound, length_upper_bound


@dataclass(frozen=True)
class HorizontalPlan:
    """Length pivots plus the routing/gating rules derived from them."""

    pivots: Tuple[int, ...]
    theta: float
    func: SimilarityFunction

    @property
    def n_pivots(self) -> int:
        return len(self.pivots)

    @property
    def n_base(self) -> int:
        return len(self.pivots) + 1

    # ------------------------------------------------------------------
    def base_partition(self, length: int) -> int:
        """Base partition id of a record of ``length`` tokens."""
        return bisect.bisect_right(self.pivots, length)

    def boundary_pivot(self, partition_id: int) -> int:
        """The pivot ``L_i`` guarded by boundary partition ``h_{t+i}``."""
        index = partition_id - self.n_base
        if not 0 <= index < self.n_pivots:
            raise ConfigError(f"{partition_id} is not a boundary partition id")
        return self.pivots[index]

    def is_boundary(self, partition_id: int) -> bool:
        return partition_id >= self.n_base

    def pivot_of(self, partition_id: int) -> Optional[int]:
        """The pivot a partition's pairs must straddle: ``L_i`` for boundary
        ``h_{t+i}``, ``None`` for a base partition, which joins everything
        it holds.  This is what a fragment join is handed (it applies the
        rule as an index window); :meth:`pair_allowed` states the rule."""
        if not self.is_boundary(partition_id):
            return None
        return self.boundary_pivot(partition_id)

    def partitions_of(self, length: int) -> List[int]:
        """All horizontal partitions a record of ``length`` tokens joins.

        Always its base partition; additionally every boundary partition
        ``h_{t+i}`` whose pivot a similar partner could straddle.
        """
        result = [self.base_partition(length)]
        if length == 0:
            return result
        for index, pivot in enumerate(self.pivots):
            if length < pivot:
                reachable = length_upper_bound(self.func, self.theta, length) >= pivot
            else:
                reachable = length_lower_bound(self.func, self.theta, length) < pivot
            if reachable:
                result.append(self.n_base + index)
        return result

    def pair_allowed(self, partition_id: int, len_s: int, len_t: int) -> bool:
        """Whether a pair may be joined in ``partition_id``.

        Base partitions join everything they hold; boundary ``h_{t+i}``
        joins only pairs straddling ``L_i`` (one side strictly below, one
        at or above), which prevents double-counting pairs that share a
        base partition.
        """
        pivot = self.pivot_of(partition_id)
        if pivot is None:
            return True
        low, high = (len_s, len_t) if len_s <= len_t else (len_t, len_s)
        return low < pivot <= high


def build_horizontal_plan(
    lengths: Sequence[int],
    n_base: int,
    theta: float,
    func: SimilarityFunction,
) -> HorizontalPlan:
    """Equal-depth length pivots, pruned to respect the ratio constraint.

    Args:
        lengths: Record lengths (token counts) of the collection.
        n_base: Requested number of base partitions (``t + 1``); 1 disables
            horizontal partitioning entirely.
        theta: Similarity threshold.
        func: Similarity function (determines the admissible length band).
    """
    func = SimilarityFunction(func)
    if n_base < 1:
        raise ConfigError("n_base must be >= 1")
    positive = sorted(length for length in lengths if length > 0)
    if n_base == 1 or len(positive) < 2:
        return HorizontalPlan((), theta, func)
    raw = []
    for k in range(1, n_base):
        raw.append(positive[min(len(positive) - 1, round(k * len(positive) / n_base))])
    pivots: List[int] = []
    for pivot in sorted(set(raw)):
        if pivot <= positive[0]:
            continue  # nothing would fall below it
        if pivots and pivot <= length_upper_bound(func, theta, pivots[-1] - 1):
            continue  # a similar pair could straddle both pivots
        pivots.append(pivot)
    return HorizontalPlan(tuple(pivots), theta, func)
