"""Datasets: records, loaders and synthetic corpus generators.

The paper evaluates on three real corpora (Enron Email, PubMed abstracts,
Wikipedia abstracts).  Those corpora are not bundled here; instead
:mod:`repro.data.synthetic` generates Zipf-distributed corpora whose record
counts, length distributions and vocabulary skew are parameterised to mimic
each corpus's published statistics (Table III), at laptop scale.
"""

from repro.data.records import Record, RecordCollection
from repro.data.datasets import load_records, sample, save_records
from repro.data.stats import DatasetStats, dataset_stats
from repro.data.synthetic import (
    SyntheticSpec,
    generate,
    EMAIL_LIKE,
    PUBMED_LIKE,
    WIKI_LIKE,
    make_corpus,
)

__all__ = [
    "Record",
    "RecordCollection",
    "load_records",
    "save_records",
    "sample",
    "DatasetStats",
    "dataset_stats",
    "SyntheticSpec",
    "generate",
    "make_corpus",
    "EMAIL_LIKE",
    "PUBMED_LIKE",
    "WIKI_LIKE",
]
