"""Approximate similarity joins (the paper's second stated future work).

The conclusion of the paper names "approximate approaches" as planned
work.  This subpackage implements the standard construction:

* :mod:`repro.approx.minhash` — MinHash signatures whose per-permutation
  collision probability equals the pair's Jaccard similarity;
* :mod:`repro.approx.lsh` — banded locality-sensitive hashing over those
  signatures, turning the join into bucket lookups with a tunable
  recall/cost trade-off, plus optional exact verification of the candidate
  pairs (precision 1.0, recall < 1.0);
* :mod:`repro.approx.quality` — recall/precision scoring against an exact
  join, used by the ``ext_approx`` entry of ``benchmarks/paper.py``.
"""

from repro.approx.minhash import MinHasher, estimate_jaccard
from repro.approx.lsh import LSHJoin, pick_bands
from repro.approx.distributed import DistributedLSHJoin
from repro.approx.quality import ApproxQuality, evaluate_approximate

__all__ = [
    "MinHasher",
    "estimate_jaccard",
    "LSHJoin",
    "DistributedLSHJoin",
    "pick_bands",
    "ApproxQuality",
    "evaluate_approximate",
]
