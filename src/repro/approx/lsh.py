"""LSH banding over MinHash signatures.

Split each ``num_perm``-long signature into ``bands`` bands of ``rows``
rows; records colliding on any whole band become candidates.  A pair with
Jaccard ``s`` collides with probability ``1 − (1 − s^rows)^bands`` — the
classic S-curve whose inflection sits near ``(1/bands)^(1/rows)``, which is
how :func:`pick_bands` targets a threshold.

``LSHJoin`` verifies candidates exactly (precision 1.0; recall is
whatever the S-curve gives), which mirrors how an approximate distributed
join would be deployed: LSH for candidate generation, one verification
pass for correctness of everything reported.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.approx.minhash import MinHasher
from repro.data.records import RecordCollection
from repro.errors import ConfigError
from repro.similarity.functions import jaccard
from repro.similarity.thresholds import EPS


def pick_bands(num_perm: int, theta: float) -> Tuple[int, int]:
    """Choose ``(bands, rows)`` with ``bands·rows ≤ num_perm`` whose S-curve
    inflection ``(1/bands)^(1/rows)`` lies closest to ``theta``."""
    if not 0.0 < theta <= 1.0:
        raise ConfigError("theta must be in (0, 1]")
    best: Optional[Tuple[float, int, int]] = None
    for rows in range(1, num_perm + 1):
        bands = num_perm // rows
        if bands < 1:
            break
        inflection = (1.0 / bands) ** (1.0 / rows)
        distance = abs(inflection - theta)
        if best is None or distance < best[0]:
            best = (distance, bands, rows)
    assert best is not None
    return best[1], best[2]


def banding_of(
    theta: float, num_perm: int, bands: Optional[int], rows: Optional[int]
) -> Tuple[int, int]:
    """Validate an LSH join's parameters and return its ``(bands, rows)``:
    both given, or neither (then :func:`pick_bands` chooses them)."""
    if not 0.0 < theta <= 1.0:
        raise ConfigError("theta must be in (0, 1]")
    if (bands is None) != (rows is None):
        raise ConfigError("pass both bands and rows, or neither")
    if bands is None:
        bands, rows = pick_bands(num_perm, theta)
    if bands * rows > num_perm:
        raise ConfigError("bands * rows must not exceed num_perm")
    return bands, rows


class LSHJoin:
    """Approximate self-join: MinHash + banding + exact verification."""

    algorithm_name = "MinHash-LSH"

    def __init__(
        self,
        theta: float,
        num_perm: int = 128,
        bands: Optional[int] = None,
        rows: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        bands, rows = banding_of(theta, num_perm, bands, rows)
        self.theta = theta
        self.num_perm = num_perm
        self.bands = bands
        self.rows = rows
        self.seed = seed

    def candidate_pairs(self, records: RecordCollection) -> set:
        """Unverified candidate id pairs from band-bucket collisions.

        Empty records are skipped: they share the sentinel signature and
        would otherwise form one giant spurious bucket clique.
        """
        hasher = MinHasher(self.num_perm, seed=self.seed)
        signatures = {
            record.rid: hasher.signature(record.tokens)
            for record in records
            if record.tokens
        }
        candidates: set = set()
        for band in range(self.bands):
            start = band * self.rows
            buckets: Dict[Tuple, List[int]] = {}
            for rid, signature in signatures.items():
                key = tuple(signature[start : start + self.rows].tolist())
                buckets.setdefault(key, []).append(rid)
            for bucket in buckets.values():
                if len(bucket) < 2:
                    continue
                bucket.sort()
                for i, rid_a in enumerate(bucket):
                    for rid_b in bucket[i + 1 :]:
                        candidates.add((rid_a, rid_b))
        return candidates

    def run(self, records: RecordCollection) -> Dict[Tuple[int, int], float]:
        """Return approximate join results ``(rid_small, rid_large) → score``.

        Scores are exact Jaccard and every reported pair truly passes θ.
        """
        results: Dict[Tuple[int, int], float] = {}
        for rid_a, rid_b in self.candidate_pairs(records):
            score = jaccard(
                records.get(rid_a).token_set(), records.get(rid_b).token_set()
            )
            if score + EPS >= self.theta:
                results[(rid_a, rid_b)] = score
        return results
