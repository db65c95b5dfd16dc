"""Topic-clustered corpora with text-like positional structure.

The plain Zipf generators (:mod:`repro.data.synthetic`) draw every record
from the same global distribution, so any two records have nearly
identical *profiles* across the frequency-ordered universe — and the
paper's segment filters (SegL/SegI/SegD), which compare per-fragment
head/tail counts, barely fire (see EXPERIMENTS.md, Table IV).

Real corpora are topical: a record concentrates its rare tokens inside its
topic's vocabulary region.  This generator reproduces that structure —
records mix a *shared* hot-word pool (function words) with one topic's
content pool — so cross-topic pairs have strongly different fragment
profiles.  The ``ext_filter_power`` entry of ``benchmarks/paper.py`` uses
it to show the segment filters regaining pruning power on topical data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.data.records import Record, RecordCollection
from repro.errors import ConfigError

if TYPE_CHECKING:
    import numpy as np


def topic_corpus(
    n_records: int,
    n_topics: int = 15,
    topic_vocab: int = 400,
    shared_vocab: int = 80,
    mean_len: float = 60.0,
    shared_fraction: float = 0.35,
    duplicate_fraction: float = 0.2,
    mutation_rate: float = 0.1,
    seed: int = 0,
) -> RecordCollection:
    """Generate a topical corpus.

    Args:
        n_records: Total records (near-duplicates included).
        n_topics: Number of disjoint content-vocabulary clusters.
        topic_vocab: Content words per topic.
        shared_vocab: Hot function-word pool shared by all records.
        mean_len: Mean record length (token-set size).
        shared_fraction: Fraction of a record drawn from the shared pool.
        duplicate_fraction: Fraction of records that are near-duplicates.
        mutation_rate: Token replacement rate inside a near-duplicate
            (replacements stay within the source's topic).
        seed: RNG seed; fully deterministic.
    """
    if n_records < 1 or n_topics < 1:
        raise ConfigError("need n_records >= 1 and n_topics >= 1")
    if not 0.0 <= shared_fraction <= 1.0:
        raise ConfigError("shared_fraction must be in [0, 1]")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ConfigError("duplicate_fraction must be in [0, 1)")
    import numpy as np

    rng = np.random.default_rng(seed)

    shared_pool = [f"fn{i:03d}" for i in range(shared_vocab)]
    topic_pools = [
        [f"t{topic:02d}w{i:04d}" for i in range(topic_vocab)]
        for topic in range(n_topics)
    ]
    shared_weights = _zipf_weights(shared_vocab, 1.1)
    topic_weights = _zipf_weights(topic_vocab, 1.05)

    n_dups = int(n_records * duplicate_fraction)
    n_base = n_records - n_dups
    base_records = []
    topics = []
    for _ in range(n_base):
        topic = int(rng.integers(0, n_topics))
        topics.append(topic)
        length = max(4, int(rng.normal(mean_len, mean_len / 4)))
        n_shared = min(shared_vocab, int(length * shared_fraction))
        n_topic = min(topic_vocab, length - n_shared)
        tokens = _draw(shared_pool, shared_weights, n_shared, rng) + _draw(
            topic_pools[topic], topic_weights, n_topic, rng
        )
        base_records.append(tokens)

    records = list(base_records)
    for _ in range(n_dups):
        source_index = int(rng.integers(0, n_base))
        tokens = list(base_records[source_index])
        pool = topic_pools[topics[source_index]]
        for position in range(len(tokens)):
            if rng.random() < mutation_rate:
                tokens[position] = pool[_weighted_index(topic_weights, rng)]
        records.append(tokens)

    return RecordCollection(
        Record.make(rid, tokens) for rid, tokens in enumerate(records)
    )


def _zipf_weights(size: int, exponent: float) -> np.ndarray:
    import numpy as np

    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _weighted_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    return int(rng.choice(len(weights), p=weights))


def _draw(pool, weights: np.ndarray, count: int, rng: np.random.Generator):
    if count <= 0:
        return []
    chosen = rng.choice(len(pool), size=count, replace=False, p=weights)
    return [pool[i] for i in chosen]
