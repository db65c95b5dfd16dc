"""Vertical pivot selection (paper Section IV).

A pivot set of size ``N_p`` splits the globally ordered token universe into
``N_p + 1`` partitions.  Pivots are represented as *cut ranks*: partition
``k`` holds token ranks ``r`` with ``cuts[k-1] ≤ r < cuts[k]`` (with
implicit boundaries 0 and vocab size).  Three selection methods are
implemented, matching the paper:

* **Random** — uniformly random cut ranks; no balance guarantee.
* **Even-Interval** — equal number of *distinct tokens* per partition; still
  unbalanced because token frequencies differ wildly.
* **Even-TF** — equal total *term frequency* per partition; this is what
  FS-Join uses, because it equalises the number of token occurrences each
  fragment receives and thereby balances reducer load.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import random
from typing import Sequence, Tuple

from repro.errors import ConfigError


class PivotMethod(str, enum.Enum):
    """Pivot selection strategy."""

    RANDOM = "random"
    EVEN_INTERVAL = "even-interval"
    EVEN_TF = "even-tf"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def select_pivots(
    rank_frequencies: Sequence[int],
    n_partitions: int,
    method: PivotMethod = PivotMethod.EVEN_TF,
    seed: int = 0,
) -> Tuple[int, ...]:
    """Choose ``n_partitions − 1`` cut ranks over the ordered universe.

    Args:
        rank_frequencies: Term frequency per rank, ascending rank order
            (from :class:`~repro.core.ordering.GlobalOrder`).
        n_partitions: Desired number of vertical partitions (fragments).
        method: Selection strategy.
        seed: RNG seed for the Random method.

    Returns:
        Strictly increasing cut ranks in ``(0, vocab)``.  Fewer cuts than
        requested are returned when the vocabulary is too small.
    """
    if n_partitions < 1:
        raise ConfigError("n_partitions must be >= 1")
    vocab = len(rank_frequencies)
    n_cuts = min(n_partitions - 1, max(0, vocab - 1))
    if n_cuts == 0:
        return ()
    method = PivotMethod(method)
    if method is PivotMethod.RANDOM:
        rng = random.Random(seed)
        return tuple(sorted(rng.sample(range(1, vocab), n_cuts)))
    if method is PivotMethod.EVEN_INTERVAL:
        cuts = [round(k * vocab / (n_cuts + 1)) for k in range(1, n_cuts + 1)]
        return _dedupe_cuts(cuts, vocab)
    # Even-TF: cut where cumulative term frequency crosses k/N of the total.
    cumulative = list(itertools.accumulate(rank_frequencies))
    total = cumulative[-1]
    cuts = []
    for k in range(1, n_cuts + 1):
        target = k * total / (n_cuts + 1)
        cuts.append(bisect.bisect_left(cumulative, target) + 1)
    return _dedupe_cuts(cuts, vocab)


def _dedupe_cuts(cuts: Sequence[int], vocab: int) -> Tuple[int, ...]:
    """Clamp cuts into ``(0, vocab)`` and drop duplicates, keeping order."""
    result = []
    previous = 0
    for cut in cuts:
        cut = max(previous + 1, min(cut, vocab - 1))
        if cut <= previous or cut >= vocab:
            continue
        result.append(cut)
        previous = cut
    return tuple(result)
