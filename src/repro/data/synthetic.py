"""Synthetic corpus generators mimicking the paper's three datasets.

The paper evaluates on Enron Email, PubMed abstracts and Wikipedia abstracts
(Table III).  Those corpora are multi-GB downloads; this module generates
Zipf-distributed stand-ins whose *shape* matches each corpus:

* token frequencies follow a Zipf law (the skew that drives prefix filtering
  and the load-balancing problems the paper studies);
* record lengths follow a clipped lognormal with the corpus's min / mean
  ratios (Email: long messages with an extreme tail; PubMed: mid-length
  abstracts; Wiki: short abstracts);
* a configurable fraction of records are *near-duplicates* of earlier
  records (token mutations), so that joins at high thresholds return
  non-trivial result sets — mirroring the duplicate-detection use case the
  paper motivates.

Record counts are scaled down (pure-Python laptop scale); every generator is
fully deterministic given a seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.data.records import Record, RecordCollection
from repro.errors import ConfigError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic corpus.

    Attributes:
        name: Corpus label (used in bench output).
        n_records: Number of records to generate (near-duplicates included).
        vocab_size: Token-universe size.
        zipf_s: Zipf exponent of the token-frequency distribution.
        min_len / max_len: Clip bounds on record length (token-set size).
        mean_len: Target mean record length.
        sigma: Lognormal shape parameter (length-tail heaviness).
        duplicate_fraction: Fraction of records generated as near-duplicates.
        mutation_rate: Per-token replacement probability in a near-duplicate.
    """

    name: str
    n_records: int
    vocab_size: int
    zipf_s: float
    min_len: int
    max_len: int
    mean_len: float
    sigma: float
    duplicate_fraction: float = 0.2
    mutation_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.n_records < 1:
            raise ConfigError("n_records must be >= 1")
        if self.vocab_size < self.max_len:
            raise ConfigError("vocab_size must be >= max_len (records are sets)")
        if not 0 < self.min_len <= self.max_len:
            raise ConfigError("need 0 < min_len <= max_len")
        if not 0.0 <= self.duplicate_fraction < 1.0:
            raise ConfigError("duplicate_fraction must be in [0, 1)")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError("mutation_rate must be in [0, 1]")


#: Long messages, extreme length tail, large vocabulary (Enron-like).
EMAIL_LIKE = SyntheticSpec(
    name="email",
    n_records=1000,
    vocab_size=30_000,
    zipf_s=1.05,
    min_len=20,
    max_len=2_000,
    mean_len=160.0,
    sigma=0.9,
)

#: Mid-length abstracts (PubMed-like, paper mean 80.39 tokens).
PUBMED_LIKE = SyntheticSpec(
    name="pubmed",
    n_records=1000,
    vocab_size=25_000,
    zipf_s=1.1,
    min_len=5,
    max_len=1_100,
    mean_len=80.0,
    sigma=0.5,
)

#: Short abstracts (Wiki-like, paper mean 55.95 tokens).
WIKI_LIKE = SyntheticSpec(
    name="wiki",
    n_records=1000,
    vocab_size=20_000,
    zipf_s=1.15,
    min_len=3,
    max_len=600,
    mean_len=56.0,
    sigma=0.6,
)

_PRESETS = {spec.name: spec for spec in (EMAIL_LIKE, PUBMED_LIKE, WIKI_LIKE)}


def _zipf_log_weights(vocab_size: int, s: float) -> np.ndarray:
    import numpy as np

    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    return -s * np.log(ranks)


def _sample_lengths(spec: SyntheticSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    import numpy as np

    # Lognormal with the requested mean: mean = exp(mu + sigma^2/2).
    mu = math.log(spec.mean_len) - spec.sigma**2 / 2.0
    lengths = rng.lognormal(mean=mu, sigma=spec.sigma, size=n)
    return np.clip(np.rint(lengths), spec.min_len, spec.max_len).astype(np.int64)


#: How far below the approximate k-th key a token may sit and still be a
#: candidate for the top k.  The ``np.log`` and libm keys differ by at most
#: 1.8e-15 over 10^6 draws (``tests/test_data_synthetic.py`` checks 1e-9);
#: twice that error is all the margin the exactness argument in
#: :func:`_top_k_exact` needs.
_BOUNDARY_MARGIN = 1e-6


def _approximate_keys(log_weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``log_weights - log(-log(u))`` with numpy's vectorised ``log``.

    Not bit-equal to the libm keys gumbel yields, only close; a draw of
    exactly 1.0 keys to ``+inf``.
    """
    import numpy as np

    with np.errstate(divide="ignore"):
        return log_weights - np.log(-np.log(u))


def _top_k_exact(
    log_weights: np.ndarray, u: np.ndarray, k: int
) -> Optional[np.ndarray]:
    """The ``k`` tokens ``rng.gumbel`` + ``argpartition`` would pick from ``u``.

    ``u`` holds ``1.0 - rng.random(vocab)``: the very doubles, in the very
    order, that ``rng.gumbel(size=vocab)`` turns into ``0.0 - 1.0 *
    log(-log(u))`` with libm's ``log``.  The record's tokens are the ``k``
    largest exact keys ``log_weights[i] - log(-log(u[i]))``, found without
    computing all of them:

    * a vectorised ``np.log`` key, within ``e`` of the exact one, finds the
      approximate k-th largest key.  An order statistic moves by at most
      the largest per-element error, so every token of the exact top ``k``
      has an approximate key at least the approximate k-th minus ``2e``:
      the band :data:`_BOUNDARY_MARGIN` below it holds them all;
    * a band of exactly ``k`` tokens (for the wiki preset, all but about
      one record in 2 000) is therefore the top ``k``.  A wider one gets
      the exact keys with :func:`math.log` — the same libm arithmetic
      gumbel runs — and its ``k`` largest are the record's tokens.

    The k-th largest of any ``m >= k`` keys is at most the k-th largest
    of all, so the first ``4k`` keys bound the boundary from below and a
    single comparison keeps the few tokens that can reach the band before
    the partition that finds it.

    Returns ``None`` where this cannot promise gumbel's answer, and the
    caller redraws the record on the old path: a draw of exactly ``1.0``
    (gumbel rejects it and consumes another double; its key is ``+inf``,
    so it is always in the band) or an exact tie between the k-th and the
    (k+1)-th key (argpartition's pick between them is its own).  Returned
    ids are sorted, dtype ``intp``.
    """
    import numpy as np

    keys = _approximate_keys(log_weights, u)
    m = min(len(keys), 4 * k)
    floor = np.partition(keys[:m], m - k)[m - k] - _BOUNDARY_MARGIN
    near = np.flatnonzero(keys >= floor)
    near_keys = keys[near]
    boundary = np.partition(near_keys, len(near) - k)[len(near) - k]
    ids = near[near_keys >= boundary - _BOUNDARY_MARGIN]
    draws = u[ids]
    if draws.max() == 1.0:
        return None
    if len(ids) == k:
        return np.sort(ids)
    log = math.log
    exact = sorted(
        (
            (weight - log(-log(draw)), i)
            for weight, draw, i in zip(
                log_weights[ids].tolist(), draws.tolist(), ids.tolist()
            )
        ),
        reverse=True,
    )
    if exact[k - 1][0] == exact[k][0]:
        return None
    return np.sort(np.array([i for _, i in exact[:k]], dtype=np.intp))


def _sample_token_sets(
    log_weights: np.ndarray, lengths: Sequence[int], rng: np.random.Generator
) -> List[np.ndarray]:
    """Draw one unique-token set per requested length.

    Uses the Gumbel top-k trick: adding Gumbel noise to log-weights and
    taking the k largest is equivalent to weighted sampling without
    replacement.  :func:`_top_k_exact` reads the same uniform doubles
    gumbel would and computes exact keys only near the k-th, so each set
    — and the generator state after it — is the one
    ``rng.gumbel(size=vocab)`` and ``argpartition`` produce; a record it
    declines is redrawn that way from the restored generator state.
    """
    import numpy as np

    vocab = len(log_weights)
    bit_generator = rng.bit_generator
    sets: List[np.ndarray] = []
    for k in lengths:
        k = min(int(k), vocab)
        state = bit_generator.state
        top = _top_k_exact(log_weights, 1.0 - rng.random(vocab), k)
        if top is None:
            bit_generator.state = state
            keys = log_weights + rng.gumbel(size=vocab)
            top = np.sort(np.argpartition(keys, vocab - k)[vocab - k :])
        sets.append(top)
    return sets


def _mutate(
    base: np.ndarray,
    rate: float,
    log_weights: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Replace ~``rate`` of ``base``'s tokens with fresh Zipf draws.

    This keeps the full ``rng.gumbel`` vector that :func:`_top_k_exact`
    spares the base records: the replacements are the first ``need``
    non-kept ids in ``argpartition``'s own arrangement of the top ``draw``
    keys, and that arrangement depends on every key, not only on which
    keys are largest.
    """
    import numpy as np

    keep = base[rng.random(len(base)) >= rate]
    need = len(base) - len(keep)
    if need <= 0:
        return keep
    gumbel = rng.gumbel(size=len(log_weights))
    keys = log_weights + gumbel
    # Draw extra candidates so replacements colliding with kept tokens can
    # be skipped without another sampling round.
    draw = min(len(log_weights), need + len(base))
    candidates = np.argpartition(keys, len(keys) - draw)[len(keys) - draw :]
    kept = set(keep.tolist())
    fresh = [c for c in candidates.tolist() if c not in kept][:need]
    return np.sort(np.concatenate([keep, np.asarray(fresh, dtype=base.dtype)]))


def generate(spec: SyntheticSpec, seed: int = 0) -> RecordCollection:
    """Generate a corpus for ``spec``; deterministic in ``seed``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    log_weights = _zipf_log_weights(spec.vocab_size, spec.zipf_s)
    n_dups = int(spec.n_records * spec.duplicate_fraction)
    n_base = spec.n_records - n_dups
    lengths = _sample_lengths(spec, rng, n_base)
    token_sets = _sample_token_sets(log_weights, lengths, rng)

    for _ in range(n_dups):
        source = token_sets[int(rng.integers(0, n_base))]
        token_sets.append(_mutate(source, spec.mutation_rate, log_weights, rng))

    # Each distinct token id is formatted once and its string shared by
    # every record holding it; the table grows with the ids drawn, never
    # with ``vocab_size``.
    width = len(str(spec.vocab_size))
    names: Dict[int, str] = {}
    collection = RecordCollection()
    for rid, tokens in enumerate(token_sets):
        ids = tokens.tolist()
        for t in ids:
            if t not in names:
                names[t] = f"w{t:0{width}d}"
        collection.add(Record(rid, tuple(map(names.__getitem__, ids))))
    return collection


def make_corpus(name: str, n_records: int, seed: int = 0, **overrides) -> RecordCollection:
    """Generate a preset corpus (``email`` / ``pubmed`` / ``wiki``) of a given size.

    Extra keyword arguments override the preset's fields, e.g.
    ``make_corpus("wiki", 500, mutation_rate=0.05)``.
    """
    try:
        preset = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown corpus {name!r}; choose from {sorted(_PRESETS)}"
        ) from None
    spec = dataclasses.replace(preset, n_records=n_records, **overrides)
    return generate(spec, seed=seed)
