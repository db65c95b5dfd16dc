"""Set-similarity functions and the threshold algebra built on them.

This subpackage is the mathematical substrate shared by FS-Join and every
baseline: the similarity functions themselves (:mod:`repro.similarity.functions`),
the equivalent-overlap / length-bound / prefix-length derivations used by all
filter-and-verification algorithms (:mod:`repro.similarity.thresholds`), and
exact pair verification (:mod:`repro.similarity.verify`).
"""

from repro.similarity.functions import (
    SimilarityFunction,
    cosine,
    dice,
    get_similarity_function,
    jaccard,
    overlap,
)
from repro.similarity.thresholds import (
    length_lower_bound,
    length_upper_bound,
    prefix_length,
    required_overlap,
    similarity_from_overlap,
    passes_threshold,
)
from repro.similarity.selectivity import SelectivityEstimate, estimate_result_count
from repro.similarity.verify import intersection_size, verify_pair

__all__ = [
    "SimilarityFunction",
    "jaccard",
    "dice",
    "cosine",
    "overlap",
    "get_similarity_function",
    "required_overlap",
    "length_lower_bound",
    "length_upper_bound",
    "prefix_length",
    "similarity_from_overlap",
    "passes_threshold",
    "intersection_size",
    "verify_pair",
    "SelectivityEstimate",
    "estimate_result_count",
]
