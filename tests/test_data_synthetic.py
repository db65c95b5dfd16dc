"""Tests for the synthetic corpus generators."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.data.stats import dataset_stats
from repro.data.synthetic import (
    EMAIL_LIKE,
    PUBMED_LIKE,
    WIKI_LIKE,
    SyntheticSpec,
    _approximate_keys,
    _sample_token_sets,
    _top_k_exact,
    _zipf_log_weights,
    generate,
    make_corpus,
)
from repro.errors import ConfigError

GOLDEN_CORPORA = json.loads(
    (Path(__file__).parent / "golden" / "corpora.json").read_text()
)["corpora"]


def corpus_sha256(records) -> str:
    """sha256 of ``<rid>\\t<tokens joined by one space>\\n`` per record."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(f"{record.rid}\t{' '.join(record.tokens)}\n".encode())
    return digest.hexdigest()


class TestSpecValidation:
    def test_negative_records(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(WIKI_LIKE, n_records=0)

    def test_vocab_smaller_than_max_len(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(WIKI_LIKE, vocab_size=10, max_len=20)

    def test_bad_length_bounds(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(WIKI_LIKE, min_len=10, max_len=5)

    def test_bad_duplicate_fraction(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(WIKI_LIKE, duplicate_fraction=1.0)

    def test_bad_mutation_rate(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(WIKI_LIKE, mutation_rate=1.5)


class TestGenerate:
    def test_record_count(self):
        records = make_corpus("wiki", 120, seed=0)
        assert len(records) == 120

    def test_deterministic(self):
        a = make_corpus("pubmed", 50, seed=3)
        b = make_corpus("pubmed", 50, seed=3)
        assert [r.tokens for r in a] == [r.tokens for r in b]

    def test_seed_changes_output(self):
        a = make_corpus("pubmed", 50, seed=3)
        b = make_corpus("pubmed", 50, seed=4)
        assert [r.tokens for r in a] != [r.tokens for r in b]

    def test_tokens_unique_within_record(self):
        for record in make_corpus("wiki", 60, seed=1):
            assert len(record.tokens) == len(set(record.tokens))

    def test_lengths_within_bounds(self):
        spec = dataclasses.replace(WIKI_LIKE, n_records=100)
        for record in generate(spec, seed=2):
            assert spec.min_len <= record.size <= spec.max_len

    def test_mean_length_approximate(self):
        records = make_corpus("pubmed", 400, seed=5)
        stats = dataset_stats(records)
        assert stats.mean_len == pytest.approx(PUBMED_LIKE.mean_len, rel=0.35)

    def test_duplicates_planted(self):
        """With duplicates planted, high-threshold joins have results."""
        from repro.baselines import naive_self_join

        records = make_corpus("wiki", 80, seed=7, mutation_rate=0.05)
        assert naive_self_join(records, 0.8)

    def test_zero_duplicates(self):
        records = make_corpus("wiki", 40, seed=0, duplicate_fraction=0.0)
        assert len(records) == 40

    def test_unknown_corpus(self):
        with pytest.raises(ConfigError):
            make_corpus("twitter", 10)

    def test_override_kwargs(self):
        records = make_corpus("wiki", 30, seed=0, min_len=10, max_len=12)
        assert all(10 <= r.size <= 12 for r in records)


class TestPresetShapes:
    """The presets should mirror the Table III length relationships."""

    def test_email_longest(self):
        email = dataset_stats(make_corpus("email", 150, seed=0))
        pubmed = dataset_stats(make_corpus("pubmed", 150, seed=0))
        wiki = dataset_stats(make_corpus("wiki", 150, seed=0))
        assert email.mean_len > pubmed.mean_len > wiki.mean_len

    def test_email_heavy_tail(self):
        stats = dataset_stats(make_corpus("email", 300, seed=0))
        assert stats.max_len > 3 * stats.mean_len

    def test_zipf_skew_present(self):
        stats = dataset_stats(make_corpus("wiki", 300, seed=0))
        # The most frequent token covers far more than a uniform share.
        assert stats.top_token_share > 5.0 / stats.vocab_size

    @pytest.mark.parametrize("preset", [EMAIL_LIKE, PUBMED_LIKE, WIKI_LIKE])
    def test_presets_valid(self, preset: SyntheticSpec):
        assert preset.min_len <= preset.mean_len <= preset.max_len


class TestGoldenCorpora:
    """Every preset at two sizes and three seeds, pinned byte for byte.

    The benchmarks, the paper tables and every pinned count downstream
    read these corpora; a change that alters them on purpose rewrites
    ``tests/golden/corpora.json`` from :func:`corpus_sha256` and says why.
    """

    @pytest.mark.parametrize(
        "entry", GOLDEN_CORPORA,
        ids=[f"{e['corpus']}-{e['records']}-seed{e['seed']}" for e in GOLDEN_CORPORA],
    )
    def test_corpus_unchanged(self, entry):
        records = make_corpus(entry["corpus"], entry["records"], seed=entry["seed"])
        assert corpus_sha256(records) == entry["sha256"]

    def test_covers_every_preset_at_two_sizes_and_a_large_wiki(self):
        sizes = {}
        for entry in GOLDEN_CORPORA:
            sizes.setdefault(entry["corpus"], set()).add(entry["records"])
        assert {name: len(n) for name, n in sizes.items()} == {
            "email": 2, "pubmed": 2, "wiki": 2
        }
        assert max(sizes["wiki"]) >= 10_000


class _ScriptedGenerator:
    """A real generator whose first ``random`` call returns scripted
    doubles (after consuming as many real ones); counts ``gumbel`` calls."""

    def __init__(self, seed, scripted):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self._scripted = np.asarray(scripted, dtype=np.float64)
        self.gumbel_calls = 0

    def random(self, size):
        drawn = self._rng.random(size)
        scripted, self._scripted = self._scripted, None
        return drawn if scripted is None else scripted

    def gumbel(self, size):
        self.gumbel_calls += 1
        return self._rng.gumbel(size=size)


class TestSamplerContract:
    """What the sampler's exactness rests on, checked on this numpy."""

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_gumbel_is_libm_on_the_uniform_doubles(self, seed):
        n = 20_000
        gumbel = np.random.default_rng(seed).gumbel(size=n)
        u = 1.0 - np.random.default_rng(seed).random(size=n)
        libm = np.array([0.0 - 1.0 * math.log(-math.log(x)) for x in u.tolist()])
        assert gumbel.tobytes() == libm.tobytes()

    def test_vectorised_key_within_1e_9_of_the_libm_key(self):
        u = 1.0 - np.random.default_rng(0).random(1_000_000)
        weights = np.resize(
            _zipf_log_weights(WIKI_LIKE.vocab_size, WIKI_LIKE.zipf_s), len(u)
        )
        libm = np.array([
            w - math.log(-math.log(x)) for w, x in zip(weights.tolist(), u.tolist())
        ])
        assert np.abs(_approximate_keys(weights, u) - libm).max() <= 1e-9

    def test_picks_what_gumbel_and_argpartition_pick(self):
        weights = _zipf_log_weights(WIKI_LIKE.vocab_size, WIKI_LIKE.zipf_s)
        rng = np.random.default_rng(3)
        for k in (1, 3, 56, 600, len(weights)):
            state = rng.bit_generator.state
            fast = _top_k_exact(weights, 1.0 - rng.random(len(weights)), k)
            rng.bit_generator.state = state
            keys = weights + rng.gumbel(size=len(weights))
            slow = np.sort(np.argpartition(keys, len(keys) - k)[len(keys) - k:])
            assert fast.dtype == slow.dtype
            assert fast.tolist() == slow.tolist()

    # Token weights and scripted ``rng.random`` doubles (u = 1 - r).
    FLAT = np.zeros(4)
    CLEAR = [0.01, 0.1, 0.2, 0.5]          # keys far apart: picks {0, 1}
    NEAR = [0.01, 0.1, 0.1 - 1e-12, 0.5]   # 2nd and 3rd inside the margin
    ONE_DRAW = [0.01, 0.0, 0.2, 0.5]       # u[1] == 1.0: gumbel redraws it
    TIE = [0.01, 0.1, 0.1, 0.5]            # 2nd and 3rd keys exactly equal

    @pytest.mark.parametrize(
        "scripted, picked", [(CLEAR, [0, 1]), (NEAR, [0, 2])], ids=["clear", "near"]
    )
    def test_decided_boundary_stays_on_the_fast_path(self, scripted, picked):
        assert _top_k_exact(self.FLAT, 1.0 - np.array(scripted), 2).tolist() == picked
        rng = _ScriptedGenerator(5, scripted)
        assert [s.tolist() for s in _sample_token_sets(self.FLAT, [2], rng)] == [picked]
        assert rng.gumbel_calls == 0

    @pytest.mark.parametrize("scripted", [ONE_DRAW, TIE], ids=["one-draw", "tie"])
    def test_declined_boundary_takes_the_gumbel_path(self, scripted):
        assert _top_k_exact(self.FLAT, 1.0 - np.array(scripted), 2) is None
        rng = _ScriptedGenerator(5, scripted)
        sets = _sample_token_sets(self.FLAT, [2], rng)
        assert rng.gumbel_calls == 1
        keys = self.FLAT + np.random.default_rng(5).gumbel(size=4)
        assert sets[0].tolist() == np.sort(np.argpartition(keys, 2)[2:]).tolist()
