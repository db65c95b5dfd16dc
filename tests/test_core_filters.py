"""Tests for the four fragment filters (Lemmas 1–4).

The crucial property is *safety*: a filter may only prune pairs whose true
similarity is below θ.  Completeness is intentionally not required (filters
are allowed to keep dissimilar pairs; verification removes them).
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.core.config import FilterConfig, JoinMethod
from repro.core.horizontal import HorizontalPlan
from repro.core.joins import join_fragment
from repro.core.partitioning import Segment, SegmentInfo, VerticalPartitioner
from repro.errors import ConfigError
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobContext
from repro.similarity.functions import SimilarityFunction, get_similarity_function
from repro.similarity.thresholds import (
    length_lower_bound,
    prefix_length,
    required_overlap,
)
from repro.similarity.verify import bounded_merge_intersection
from tests.conftest import expand_stripes

rank_sets = st.lists(st.integers(0, 59), min_size=1, max_size=25, unique=True).map(
    lambda xs: tuple(sorted(xs))
)
cut_sets = st.lists(st.integers(1, 59), min_size=0, max_size=6, unique=True).map(
    lambda xs: tuple(sorted(xs))
)
thetas = st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.9, 0.95])
funcs = st.sampled_from(list(SimilarityFunction))


def _outcome(theta, func, config, seg_s, seg_t):
    """What ``join_fragment`` does with the two-segment fragment
    ``{seg_s, seg_t}``: the lemma that pruned the pair (``"strl"``,
    ``"segl"``, ``"segi"`` or ``"segd"``), ``"disjoint"`` when the segments
    share no token, or None when the pair is emitted.  The loop join with
    ``early_verify`` off merges every pair to the end, so a post-
    intersection lemma decides on the exact segment intersection."""
    _, counts = _join(
        [seg_s, seg_t], JoinMethod.LOOP, theta, func,
        replace(config, early_verify=False),
    )
    for lemma in ("strl", "segl", "segi", "segd"):
        if counts.get(f"pruned_{lemma}"):
            return lemma
    if counts.get("disjoint_segments"):
        return "disjoint"
    assert counts["candidates_emitted"] == 1
    return None


class TestFilterConfig:
    def test_default_all_on(self):
        config = FilterConfig()
        assert config.strl and config.segl and config.segi and config.segd

    def test_none(self):
        config = FilterConfig.only()
        assert not (config.strl or config.segl or config.segi or config.segd)

    def test_only(self):
        config = FilterConfig.only("strl", "segd")
        assert config.strl and config.segd
        assert not config.segl and not config.segi

    def test_only_unknown_raises(self):
        with pytest.raises(ConfigError):
            FilterConfig.only("bogus")


class TestKnownCases:
    def test_paper_example_2(self):
        """Example 2: s='A,B,D,E,G', t='B,D,E,F,K', θ=0.8, pivots {D, G}.

        The paper concludes the pair is pruned without verification
        (sim = 3/7 < 0.8).  Our segment boundaries differ slightly (a pivot
        token starts the next segment rather than ending the previous one),
        so the check is the behavioural one: no fragment ever emits a
        partial count for this pair.
        """
        partitioner = VerticalPartitioner((3, 6))  # cut ranks of D and G
        seg_s = dict(partitioner.split(0, (0, 1, 3, 4, 6)))
        seg_t = dict(partitioner.split(1, (1, 3, 4, 5, 10)))
        for i in set(seg_s) & set(seg_t):
            pruned = _outcome(
                0.8, SimilarityFunction.JACCARD, FilterConfig(), seg_s[i], seg_t[i]
            )
            assert pruned is not None

    def test_strl_prunes_length_mismatch(self):
        """Lemma 1 is the join's length window: the pair is never touched."""
        partitioner = VerticalPartitioner(())
        (_, short), = partitioner.split(0, (1, 2))
        (_, long), = partitioner.split(1, tuple(range(20)))
        assert _outcome(
            0.8, SimilarityFunction.JACCARD, FilterConfig(), short, long
        ) == "strl"
        for method in JoinMethod:
            for strl, expected in (
                (True, {"pruned_strl": 1}),
                (False, {"pairs_considered": 1, "candidates_emitted": 1,
                         "stripes_emitted": 1}),
            ):
                stripes, counts = _join(
                    [long, short], method, 0.8, SimilarityFunction.JACCARD,
                    FilterConfig.only("strl") if strl else FilterConfig.only(),
                )
                counts.pop("verify_token_comparisons", None)
                assert counts == expected, (method, strl)
                assert [pair for _, pair, _ in stripes] == [(0, 1)][strl:]

    def test_identical_records_never_pruned(self):
        partitioner = VerticalPartitioner((5,))
        segs_a = dict(partitioner.split(0, (1, 2, 7, 8)))
        segs_b = dict(partitioner.split(1, (1, 2, 7, 8)))
        for i in segs_a:
            assert _outcome(
                0.9, SimilarityFunction.JACCARD, FilterConfig(),
                segs_a[i], segs_b[i],
            ) is None

    def test_disabled_filters_never_prune(self):
        partitioner = VerticalPartitioner(())
        (_, short), = partitioner.split(0, (1,))
        (_, long), = partitioner.split(1, tuple(range(30)))
        assert _outcome(
            0.9, SimilarityFunction.JACCARD, FilterConfig.only(), short, long
        ) is None


LEMMAS = {"strl", "segl", "segi", "segd"}


class TestFilterSafety:
    """Property: pruned pairs are always truly dissimilar."""

    @settings(max_examples=300, deadline=None)
    @given(funcs, thetas, cut_sets, rank_sets, rank_sets)
    def test_no_similar_pair_pruned(self, func, theta, cuts, ranks_s, ranks_t):
        similarity = get_similarity_function(func)
        score = similarity(set(ranks_s), set(ranks_t))
        partitioner = VerticalPartitioner(cuts)
        segs_s = dict(partitioner.split(0, ranks_s))
        segs_t = dict(partitioner.split(1, ranks_t))
        for i in set(segs_s) & set(segs_t):
            pruned = _outcome(theta, func, FilterConfig(), segs_s[i], segs_t[i])
            if pruned in LEMMAS:
                assert score < theta + 1e-9, (
                    f"filter {pruned} pruned a pair with sim={score} >= {theta}"
                )

    @settings(max_examples=150, deadline=None)
    @given(thetas, cut_sets, rank_sets)
    def test_self_pair_never_pruned(self, theta, cuts, ranks):
        """A record paired with an identical copy survives all filters."""
        partitioner = VerticalPartitioner(cuts)
        segs_a = dict(partitioner.split(0, ranks))
        segs_b = dict(partitioner.split(1, ranks))
        for i in segs_a:
            assert _outcome(
                theta, SimilarityFunction.JACCARD, FilterConfig(),
                segs_a[i], segs_b[i],
            ) is None


class TestFilterPowerOrdering:
    """SegI (actual intersection) subsumes SegL (its upper bound)."""

    @settings(max_examples=150, deadline=None)
    @given(funcs, thetas, cut_sets, rank_sets, rank_sets)
    def test_segi_at_least_as_strong_as_segl(self, func, theta, cuts, ranks_s, ranks_t):
        partitioner = VerticalPartitioner(cuts)
        segs_s = dict(partitioner.split(0, ranks_s))
        segs_t = dict(partitioner.split(1, ranks_t))
        segl_only = FilterConfig.only("segl")
        segi_only = FilterConfig.only("segi")
        for i in set(segs_s) & set(segs_t):
            seg_s, seg_t = segs_s[i], segs_t[i]
            common = len(set(seg_s.tokens) & set(seg_t.tokens))
            if _outcome(theta, func, segl_only, seg_s, seg_t) == "segl":
                # A pair with no common token is dropped before Lemma 3 is
                # asked; any other pair SegL prunes, SegI prunes too.
                assert _outcome(theta, func, segi_only, seg_s, seg_t) == (
                    "segi" if common else "disjoint"
                )


def _join(segments, method, theta, func, config, pivot=None, cross_side=False):
    """The production join: its stripes expanded to sorted pair records,
    and its ``fsjoin.filter`` counters."""
    counters = Counters()
    stripes = join_fragment(
        segments,
        method=method,
        theta=theta,
        func=func,
        filter_config=config,
        context=JobContext(0, "reduce", counters),
        pivot=pivot,
        cross_side=cross_side,
    )
    return (
        sorted(expand_stripes(stripes, cross_side)),
        counters.as_dict().get("fsjoin.filter", {}),
    )


#: Prefix-colliding pair kinds by how many of its two segments are whole.
_KINDS = ("cut/cut", "whole/cut", "whole/whole")


def _reference_join(
    segments, method, theta, func, config, pivot=None, cross_side=False,
    kinds=None,
):
    """Lemma-by-lemma fragment join, each lemma as the paper states it.

    Every lemma derives ``τ`` from ``θ`` on its own, the early-termination
    bound is found by searching for the smallest intersection neither
    Lemma 3 nor Lemma 4 prunes — no shared slack, no closed form — and
    which pairs a fragment may join at all is a per-pair question put to
    ``HorizontalPlan.pair_allowed`` (the boundary rule) and
    ``length_lower_bound`` (Lemma 1): no sort, no window, no bisect.
    Returns the pair records and the ``fsjoin.filter`` counters the
    production join must reproduce: ``pruned_strl`` counts the admissible
    pairs Lemma 1 rejects — whatever the join method — and
    ``pairs_considered`` the pairs the method then finds.

    The prefix join finds the pairs whose segment prefixes collide.  A
    segment is *whole* when its safe prefix is all of it; a pair of whole
    segments takes its intersection from the prefixes (the production
    join's scan count), any other pair is merged.  ``kinds``, when given,
    collects the kinds (``_KINDS``) of the colliding pairs.
    """
    emitted, counts = [], {}
    plan = HorizontalPlan(() if pivot is None else (pivot,), theta, func)
    partition_id = 0 if pivot is None else plan.n_base

    def bump(name, amount=1):
        if amount:
            counts[name] = counts.get(name, 0) + amount

    def tau(s, t):
        return required_overlap(func, theta, s.info.str_len, t.info.str_len)

    def admissible(s, t):
        if cross_side and s.info.side == t.info.side:
            return False
        return plan.pair_allowed(partition_id, s.info.str_len, t.info.str_len)

    def lemma1(s, t):
        small, large = sorted((s.info.str_len, t.info.str_len))
        return small < length_lower_bound(func, theta, large)

    def lemma2(s, t):
        return min(len(s.tokens), len(t.tokens)) < (
            tau(s, t)
            - min(s.info.ahead, t.info.ahead)
            - min(s.info.behind, t.info.behind)
        )

    def lemma3(s, t, common):
        return common < (
            tau(s, t)
            - min(s.info.ahead, t.info.ahead)
            - min(s.info.behind, t.info.behind)
        )

    def lemma4(s, t, common):
        budget = (
            s.info.str_len + t.info.str_len - 2 * tau(s, t)
            - abs(s.info.ahead - t.info.ahead)
            - abs(s.info.behind - t.info.behind)
        )
        return len(s.tokens) + len(t.tokens) - 2 * common > budget

    def post(s, t, common):
        if config.segi and lemma3(s, t, common):
            return "segi"
        if config.segd and lemma4(s, t, common):
            return "segd"
        return None

    def consider(s, t, common=None):
        bump("pairs_considered")
        if config.segl and lemma2(s, t):
            return bump("pruned_segl")
        if common is None:
            required = 1
            if config.early_verify:
                shorter = min(len(s.tokens), len(t.tokens))
                required = next(
                    (c for c in range(1, shorter + 1) if post(s, t, c) is None),
                    shorter + 1,
                )
            common, comparisons, completed = bounded_merge_intersection(
                s.tokens, t.tokens, required
            )
            bump("verify_token_comparisons", comparisons)
            if not completed:
                return bump("pruned_overlap_bound")
        if common == 0:
            return bump("disjoint_segments")
        pruned = post(s, t, common)
        if pruned:
            return bump(f"pruned_{pruned}")
        bump("candidates_emitted")
        # The pair is keyed like a result (left collection, then smaller
        # id, first) and owned by the later record under (|s|, side, rid).
        first, second = sorted((s, t), key=lambda seg: (seg.info.side, seg.info.rid))
        owner = max(
            (s, t), key=lambda seg: (seg.info.str_len, seg.info.side, seg.info.rid)
        ).info
        emitted.append(
            (
                (owner.side, owner.rid) if cross_side else owner.rid,
                (first.info.rid, second.info.rid),
                (common, first.info.str_len, second.info.str_len),
            )
        )

    prefix_lens = [
        prefix_length(func, theta, seg.info.str_len) for seg in segments
    ]
    prefixes = [
        set(seg.tokens[:prefix]) for seg, prefix in zip(segments, prefix_lens)
    ]
    whole = [prefix >= len(seg.tokens) for seg, prefix in zip(segments, prefix_lens)]
    for j, current in enumerate(segments):
        for i, earlier in enumerate(segments[:j]):
            if not admissible(earlier, current):
                continue
            if config.strl and lemma1(earlier, current):
                bump("pruned_strl")
            elif method is JoinMethod.LOOP:
                consider(earlier, current)
            elif method is JoinMethod.INDEX:
                common = len(set(current.tokens) & set(earlier.tokens))
                if common:
                    consider(current, earlier, common)
            elif prefixes[i] & prefixes[j]:
                if kinds is not None:
                    kinds.add(_KINDS[whole[i] + whole[j]])
                if whole[i] and whole[j]:
                    # Both prefixes are the whole segment: the prefix scan
                    # has counted the intersection, and no merge runs.
                    consider(current, earlier, len(prefixes[i] & prefixes[j]))
                else:
                    consider(current, earlier)
    bump("stripes_emitted", len({owner for owner, _, _ in emitted}))
    return sorted(emitted), counts


def _mixed_fragment(seed):
    """The middle fragment of records built to reach every filter: wide
    length spread (StrL), near-duplicates (survivors), and head/tail-heavy
    variants of one base record (SegL/SegI/SegD)."""
    rng = random.Random(seed)
    records = []
    for _ in range(8):
        base = sorted(rng.sample(range(90), rng.randint(8, 40)))
        records.append(base)
        for _ in range(3):
            variant = set(base)
            for _ in range(rng.randint(0, 6)):
                variant.discard(rng.choice(base))
                variant.add(rng.randrange(90))
            records.append(sorted(variant))
    partitioner = VerticalPartitioner((30, 60))
    return [
        segment
        for rid, ranks in enumerate(records)
        for partition, segment in partitioner.split(rid, tuple(ranks))
        if partition == 1
    ]


ALL_FILTER_CONFIGS = [
    FilterConfig(*flags) for flags in product((False, True), repeat=5)
]


class TestSinglePassMatchesLemmaByLemma:
    """``join_fragment`` evaluates the four lemmas inline, once per segment
    pair; the joins must still emit and count exactly what a lemma-by-lemma
    evaluation does, under every filter combination."""

    @pytest.mark.parametrize("method", list(JoinMethod))
    @pytest.mark.parametrize("func", list(SimilarityFunction))
    def test_same_tuples_and_counters(self, func, method):
        assert len(ALL_FILTER_CONFIGS) == 32
        fired = set()
        for seed, theta in ((1, 0.6), (2, 0.8)):
            segments = _mixed_fragment(seed)
            for config in ALL_FILTER_CONFIGS:
                emitted, counts = _join(segments, method, theta, func, config)
                expected, expected_counts = _reference_join(
                    segments, method, theta, func, config
                )
                assert emitted == expected, config
                assert counts == expected_counts, config
                fired.update(expected_counts)
        # The corpus is not vacuous: every outcome is reached.
        assert fired >= {
            "pairs_considered", "pruned_strl", "pruned_segl", "pruned_segi",
            "pruned_segd", "candidates_emitted", "stripes_emitted",
        }


@st.composite
def sided_fragments(draw):
    """A fragment with few distinct record lengths (1–14), so ties at the
    pivot and at the StrL bound are the common case, and both collections.
    Record ids repeat across the two sides, as they may in an R-S join."""
    specs = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True),
                st.integers(0, 4), st.integers(0, 4), st.integers(0, 1),
            ),
            min_size=2, max_size=12,
        )
    )
    seen = [0, 0]
    segments = []
    for tokens, ahead, behind, side in specs:
        info = SegmentInfo(
            rid=seen[side], str_len=ahead + len(tokens) + behind,
            ahead=ahead, behind=behind, side=side,
        )
        seen[side] += 1
        segments.append(Segment(info, tuple(sorted(tokens))))
    return segments


class TestWindowMatchesSpecification:
    """The sorted fragment's index window against the per-pair rules it
    replaces: same pairs, same owners, same counters."""

    @settings(max_examples=250, deadline=None)
    @given(
        sided_fragments(),
        st.sampled_from(list(JoinMethod)),
        funcs,
        st.sampled_from([0.5, 0.75, 0.8, 0.9]),
        st.sampled_from(ALL_FILTER_CONFIGS),
        st.one_of(st.none(), st.integers(2, 13)),
        st.booleans(),
    )
    def test_same_pairs_owners_and_counters(
        self, segments, method, func, theta, config, pivot, cross_side
    ):
        if not cross_side:
            # One collection: ids are unique, every segment is side 0.
            segments = [
                Segment(replace(seg.info, rid=rid, side=0), seg.tokens)
                for rid, seg in enumerate(segments)
            ]
        args = (segments, method, theta, func, config, pivot, cross_side)
        assert _join(*args) == _reference_join(*args)


@st.composite
def prefix_fragments(draw):
    """One vertical partition of a few records over a 20-rank vocabulary,
    split at 0–3 cuts.  Few cuts leave long segments, often longer than
    their record's safe prefix (*cut*), beside short ones that stay
    *whole*.  Sides are drawn for R-S; record ids are unique."""
    records = draw(st.lists(
        st.lists(st.integers(0, 19), min_size=1, max_size=14, unique=True),
        min_size=2, max_size=10,
    ))
    cuts = draw(st.lists(st.integers(1, 19), max_size=3, unique=True))
    sides = draw(st.lists(
        st.integers(0, 1), min_size=len(records), max_size=len(records)
    ))
    partitioner = VerticalPartitioner(sorted(cuts))
    fragments = {}
    for rid, (ranks, side) in enumerate(zip(records, sides)):
        for partition, segment in partitioner.split(
            rid, tuple(sorted(ranks)), side=side
        ):
            fragments.setdefault(partition, []).append(segment)
    return fragments[draw(st.sampled_from(sorted(fragments)))]


def _colliding_kinds(segments, theta, func):
    """The kinds of the prefix join's pairs in a self-join fragment."""
    kinds = set()
    _reference_join(
        segments, JoinMethod.PREFIX, theta, func, FilterConfig(), kinds=kinds
    )
    return kinds


class TestPrefixScanCountsAreExact:
    """The prefix join takes a pair's intersection from its own scan when
    both segments are whole, and merges every other pair: whatever the
    mix, each partial count it emits is the loop join's."""

    def test_fragments_reach_every_pair_kind(self):
        find(
            prefix_fragments(),
            lambda segments: _colliding_kinds(
                [Segment(replace(seg.info, side=0), seg.tokens)
                 for seg in segments],
                0.8, SimilarityFunction.JACCARD,
            ) == set(_KINDS),
            settings=settings(
                max_examples=2_000, database=None, derandomize=True,
                phases=[Phase.generate],
            ),
        )

    @settings(max_examples=400, deadline=None)
    @given(
        prefix_fragments(), thetas, funcs, st.sampled_from(ALL_FILTER_CONFIGS),
        st.sampled_from(("self", "rs", "pivot")), st.integers(2, 15),
    )
    def test_prefix_join_counts_like_the_loop_join(
        self, segments, theta, func, config, mode, pivot
    ):
        cross_side = mode == "rs"
        if not cross_side:
            segments = [
                Segment(replace(seg.info, side=0), seg.tokens)
                for seg in segments
            ]
        pivot = pivot if mode == "pivot" else None
        args = (theta, func, config, pivot, cross_side)
        loop, _ = _join(segments, JoinMethod.LOOP, *args)
        prefix, counts = _join(segments, JoinMethod.PREFIX, *args)
        kinds = set()
        assert (prefix, counts) == _reference_join(
            segments, JoinMethod.PREFIX, *args, kinds=kinds
        )
        # The prefix join emits exactly the loop join's pair records of the
        # pairs whose prefixes collide: same owners, same counts.
        prefixes = {
            seg.info.rid: set(
                seg.tokens[: prefix_length(func, theta, seg.info.str_len)]
            )
            for seg in segments
        }
        assert prefix == [
            record for record in loop
            if prefixes[record[1][0]] & prefixes[record[1][1]]
        ]
        # Without SegL or the opening bound every merge compares at least
        # one token pair: comparisons are 0 exactly when no pair merged,
        # i.e. when every considered pair is whole on both sides.
        all_whole = kinds <= {"whole/whole"}
        _, merged_counts = _join(
            segments, JoinMethod.PREFIX, theta, func,
            replace(config, segl=False, early_verify=False), pivot, cross_side,
        )
        assert (merged_counts.get("verify_token_comparisons", 0) == 0) == all_whole
        if all_whole:
            assert "verify_token_comparisons" not in counts
