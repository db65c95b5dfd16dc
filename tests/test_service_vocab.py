"""Property tests for the token-interning layer (:class:`TokenVocab`).

Three invariants the columnar hot path rests on:

* encode/decode round-trips (ids are a lossless view of the token set);
* interned ids are *stable under growth* — ``apply_batch`` appends new
  tokens after every existing id and never remaps one;
* the index and the cluster router encode queries identically, so every
  prefix computed from an :class:`EncodedQuery` agrees across paths (for
  both jaccard and cosine prefix lengths).
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.data.records import Record
from repro.errors import DataError
from repro.service import SegmentIndex, TokenVocab
from repro.service.vocab import ID_TYPECODE
from repro.similarity.thresholds import prefix_length
from tests.conftest import random_collection

#: The corpus vocabulary (t000..t049 — what random_collection emits).
KNOWN = [f"t{i:03d}" for i in range(50)]
#: Tokens the seeded corpus can never contain.
ALIEN = [f"z{i:03d}" for i in range(20)]

known_lists = st.lists(st.sampled_from(KNOWN), min_size=1, max_size=15)
mixed_lists = st.lists(st.sampled_from(KNOWN + ALIEN), min_size=1, max_size=15)


@pytest.fixture(scope="module")
def index():
    return SegmentIndex.build(random_collection(40, seed=13), n_vertical=4)


@pytest.fixture(scope="module")
def vocab(index):
    return index.vocab


class TestRoundTrip:
    @given(tokens=known_lists)
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_round_trip(self, vocab, tokens):
        """decode(encode(tokens)) is the deduplicated token set."""
        present = [t for t in tokens if vocab.knows(t)]
        if not present:
            return
        ids = vocab.encode_record(present)
        assert list(ids) == sorted(set(ids)), "ids strictly increasing"
        assert set(vocab.order.decode(ids)) == set(present)

    @given(tokens=mixed_lists)
    @settings(max_examples=50, deadline=None)
    def test_encode_known_counts_unknowns(self, vocab, tokens):
        ids, unknown = vocab.encode_known(tokens)
        unique = set(tokens)
        assert unknown == sum(1 for t in unique if not vocab.knows(t))
        assert len(ids) == len(unique) - unknown
        assert ids == sorted(ids)
        assert set(vocab.order.decode(ids)) == {t for t in unique if vocab.knows(t)}

    def test_unknown_token_raises_on_record_encode(self, vocab):
        with pytest.raises(DataError, match="not in the vocabulary"):
            vocab.encode_record(["zz-not-interned"])


def id_of(vocab, token):
    (token_id,) = vocab.encode_record([token])
    return token_id


class TestGrowthStability:
    @given(batch_tokens=st.lists(st.sampled_from(ALIEN), min_size=1,
                                 max_size=8, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_apply_batch_never_remaps_existing_ids(self, batch_tokens):
        """New tokens append; every pre-existing id survives unchanged."""
        index = SegmentIndex.build(random_collection(30, seed=7), n_vertical=4)
        before = {t: id_of(index.vocab, t)
                  for t in KNOWN if index.vocab.knows(t)}
        size_before = index.vocab.size
        next_rid = max(index.rids()) + 1
        index.apply_batch([Record.make(next_rid, batch_tokens)])
        for token, token_id in before.items():
            assert id_of(index.vocab, token) == token_id
        for token in batch_tokens:
            assert id_of(index.vocab, token) >= size_before
        assert index.vocab.size == size_before + len(batch_tokens)

    def test_encoded_records_stay_valid_after_growth(self):
        index = SegmentIndex.build(random_collection(30, seed=7), n_vertical=4)
        rid = index.rids()[0]
        encoded_before = tuple(index._ranks[rid])
        index.apply_batch([Record.make(999, ["z900", "z901", "t000"])])
        assert tuple(index._ranks[rid]) == encoded_before


class TestIdColumnLimit:
    """Id columns take 4 bytes an id: a token whose id does not fit is a
    typed error that names it, and a batch holding one changes nothing."""

    @pytest.fixture
    def wide(self):
        index = SegmentIndex.build(random_collection(30, seed=7), n_vertical=4)
        # A test order: one token interned at the first id past the column.
        index.order._rank["wide"] = 2**32
        return index

    def test_id_columns_are_four_bytes(self, index):
        assert array(ID_TYPECODE).itemsize == 4
        for column in index._ranks.values():
            assert column.typecode == ID_TYPECODE

    def test_encode_record_names_the_token(self, wide):
        with pytest.raises(DataError, match="token 'wide' has id 4294967296"):
            wide.vocab.encode_record(["t000", "wide"])
        assert list(wide.vocab.encode_record(["t000"])) == [
            id_of(wide.vocab, "t000")
        ]

    def test_apply_batch_checks_before_any_mutation(self, wide):
        size, records = wide.vocab.size, wide.rids()
        digests = wide.content_digests()
        with pytest.raises(DataError, match="token 'wide'"):
            wide.apply_batch([Record.make(500, ["z001", "t000"]),
                              Record.make(501, ["t001", "wide"])])
        assert wide.vocab.size == size and not wide.vocab.knows("z001")
        assert wide.rids() == records
        assert wide.content_digests() == digests


class TestCrossPathEncoding:
    """Index and router must agree on the interning by construction."""

    @pytest.fixture(scope="class")
    def router(self, index):
        return build_cluster(index, n_shards=3, replication=1)

    @given(tokens=mixed_lists,
           theta=st.sampled_from([0.5, 0.7, 0.9]),
           func=st.sampled_from(["jaccard", "cosine"]))
    @settings(max_examples=50, deadline=None)
    def test_encoded_query_prefixes_agree(self, index, router, tokens,
                                          theta, func):
        via_index = index.encode_query(tokens)
        via_router = router.encode_query(tokens)
        assert via_index == via_router
        limit = min(prefix_length(func, theta, via_index.size),
                    len(via_index.ranks))
        assert via_index.ranks[:limit] == via_router.ranks[:limit]
