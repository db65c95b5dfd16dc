"""Cluster routing tests: exactness, failover, admission, rebalance.

The load-bearing property (the PR's acceptance criterion) is
*bit-identity*: for every query, :meth:`ClusterRouter.search` must return
exactly what a brute-force scan of the corpus (and a single-node probe
over the same index) returns — same rids, same scores, same order —
including with a replica failed and after a rebalance migration.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ClusterRouter,
    HedgeConfig,
    build_cluster,
    load_cluster,
    save_cluster,
)
from repro.analysis.loadbalance import summarize_loads
from repro.cluster.node import ShardSlice
from repro.cluster.router import MAX_IN_FLIGHT
from repro.data import make_corpus
from repro.data.records import RecordCollection
from repro.errors import (
    ClusterError,
    ClusterOverloadError,
    ConfigError,
    DataError,
)
from repro.ingest import IngestConfig, StreamingIndex
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import InMemoryDFS
from repro.observability.tracer import Tracer
from repro.service.index import SegmentIndex
from repro.similarity.functions import SimilarityFunction
from tests.conftest import (
    brute_force_search,
    first_common_fragment,
    random_collection,
)

THETAS = (0.5, 0.8)
FUNCS = (SimilarityFunction.JACCARD, SimilarityFunction.COSINE)


def inject_skew(router):
    """Synthesize an observed-heat skew the rebalancer can always fix.

    Organic traffic may spread heat evenly when a hot query's prefix
    fragments happen to live on different shards; the rebalance tests are
    about migration mechanics, so they plant the skew deterministically:
    every fragment warm, one multi-fragment shard red-hot.
    """
    donor = max(range(router.n_shards),
                key=lambda s: len(router.plan.fragments_of(s)))
    with router._lock:
        for fragment in router.plan.assignment:
            router._heat[fragment] = 1
        for fragment in router.plan.fragments_of(donor):
            router._heat[fragment] = 50
    return donor


def zipf_replay(router, n_probes, exponent, theta, seed):
    """Search ``n_probes`` indexed records drawn with Zipf popularity."""
    rids = router.rids()
    weights = [1.0 / (i + 1) ** exponent for i in range(len(rids))]
    for rid in random.Random(seed).choices(rids, weights=weights,
                                           k=n_probes):
        router.search(router.tokens_of(rid), theta)


@pytest.fixture(scope="module")
def corpus():
    return random_collection(120, vocab=60, max_len=18, seed=1223)


@pytest.fixture(scope="module")
def index(corpus):
    return SegmentIndex.build(corpus, n_vertical=8)


@pytest.fixture
def cluster(index):
    return build_cluster(index, n_shards=4, replication=2)


def assert_parity(router, index, corpus, theta, func):
    for record in corpus:
        expected = brute_force_search(corpus, record.tokens, theta, func)
        got = router.search(record.tokens, theta, func=func)
        assert got == expected, (
            f"rid={record.rid} theta={theta} func={func.value}"
        )
        assert got == index.probe(record.tokens, theta, func=func)


class TestBitIdentity:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("func", FUNCS, ids=lambda f: f.value)
    def test_matches_single_node(self, cluster, index, corpus, theta, func):
        assert_parity(cluster, index, corpus, theta, func)

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("func", FUNCS, ids=lambda f: f.value)
    def test_matches_under_replica_failure(self, cluster, index, corpus,
                                           theta, func):
        cluster.replica(1, 0).fail()
        assert_parity(cluster, index, corpus, theta, func)
        assert cluster.health_check()[1] == [False, True]

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("func", FUNCS, ids=lambda f: f.value)
    def test_matches_after_rebalance(self, cluster, index, corpus, theta,
                                     func):
        inject_skew(cluster)
        moves = cluster.rebalance()
        assert moves, "planted skew should trigger at least one migration"
        assert_parity(cluster, index, corpus, theta, func)

    def test_novel_queries_match(self, cluster, index):
        queries = [
            ["t000", "t001", "t002"],
            ["t010", "t020", "t030", "t040", "t050"],
            ["nope", "also-nope"],
            [],
        ]
        for tokens in queries:
            for theta in THETAS:
                assert cluster.search(tokens, theta) == index.probe(
                    tokens, theta
                )

    def test_shard_results_are_disjoint(self, cluster, index, corpus):
        # The claim rule's direct guarantee: no candidate is produced by
        # two shards, so the gather needs no dedup.
        for record in corpus[:25]:
            query = cluster.encode_query(record.tokens)
            fragments = cluster.target_fragments(
                query, 0.5, SimilarityFunction.JACCARD
            )
            seen: set = set()
            for shard, _frags in cluster._target_shards(fragments).items():
                hits = cluster.replica(shard, 0).probe(
                    query, 0.5, SimilarityFunction.JACCARD
                )
                rids = {hit.rid for hit in hits}
                assert not (rids & seen)
                seen |= rids
            expected = {
                hit.rid for hit in index.probe(record.tokens, 0.5)
            }
            assert seen == expected

    def test_search_rid_excludes_self(self, cluster, index):
        for rid in (0, 7, 42):
            got = cluster.search_rid(rid, 0.5)
            assert all(hit.rid != rid for hit in got)
            assert got == [hit for hit in index.probe(index.tokens_of(rid), 0.5)
                           if hit.rid != rid]

    def test_k_truncates(self, cluster):
        full = cluster.search(cluster.tokens_of(0), 0.3)
        assert cluster.search(cluster.tokens_of(0), 0.3, k=2) == full[:2]

    def test_search_batch(self, cluster, index):
        queries = [cluster.tokens_of(rid) for rid in (0, 1, 2)]
        assert cluster.search_batch(queries, 0.6) == [
            index.probe(tokens, 0.6) for tokens in queries
        ]

    def test_thread_executor_matches_serial(self, index, corpus):
        # With hedging on, every leg of every search runs on the hedge
        # pool's threads (and may be answered by either replica).
        threaded = build_cluster(index, n_shards=4, replication=2,
                                 hedge=HedgeConfig())
        serial = build_cluster(index, n_shards=4, replication=1)
        for record in corpus[:30]:
            assert threaded.search(record.tokens, 0.5) == serial.search(
                record.tokens, 0.5
            )

    @pytest.mark.parametrize(
        "scenario", ["healthy", "replica-failed", "ingest", "shard-down"]
    )
    @pytest.mark.parametrize("theta", THETAS)
    def test_search_is_a_batch_of_one(self, index, corpus, theta, scenario):
        """Every entry point takes the one scatter: ``search(q)``,
        ``search_batch([q])[0]``, the single-node probe and the oracle
        agree — and a whole shard down is a typed failure for both, or a
        ``search_partial`` answer naming exactly what is missing."""
        down = 1
        if scenario == "ingest":
            router = build_cluster(
                RecordCollection(list(corpus)[:90]), n_shards=4,
                replication=2, n_vertical=8,
            )
            router.attach_ingest(StreamingIndex.attach(
                InMemoryDFS(), "ingest", router.order, router.partitioner,
                config=IngestConfig(memtable_limit=8, fanout=2),
            ))
            router.apply_batch(list(corpus)[90:])
        else:
            router = build_cluster(index, n_shards=4, replication=2,
                                   sleep=lambda seconds: None)
            if scenario == "replica-failed":
                router.replica(down, 0).fail()
            elif scenario == "shard-down":
                router.replica(down, 0).fail()
                router.replica(down, 1).fail()
        for record in corpus:
            tokens = record.tokens
            full = brute_force_search(corpus, tokens, theta)
            assert full == index.probe(tokens, theta)
            targets = router._target_shards(router.target_fragments(
                router.encode_query(tokens), theta, SimilarityFunction.JACCARD
            ))
            if scenario == "shard-down" and down in targets:
                with pytest.raises(ClusterError, match="replicas down"):
                    router.search(tokens, theta)
                with pytest.raises(ClusterError, match="replicas down"):
                    router.search_batch([tokens], theta)
                partial = router.search_partial(tokens, theta)
                assert not partial.complete
                assert partial.missing_shards == (down,)
                assert partial.missing_fragments == tuple(
                    sorted(targets[down])
                )
                # What the live shards claimed: the full answer minus the
                # hits whose first common token the dead shard owns.
                lost = router.plan.fragments_of(down)
                assert list(partial.hits) == [
                    hit for hit in full
                    if first_common_fragment(
                        index, tokens, corpus.get(hit.rid)) not in lost
                ]
            else:
                assert router.search(tokens, theta) == full
                assert router.search_batch([tokens], theta) == [full]
                partial = router.search_partial(tokens, theta)
                assert partial.complete and list(partial.hits) == full
                assert partial.missing_shards == ()
                assert partial.missing_fragments == ()
        if scenario == "shard-down":
            # Heat is charged only for the shards that answered.
            for fragment in router.plan.fragments_of(down):
                assert fragment not in router.fragment_heat()
            assert router.metrics.get("cluster.route", "partial_results")


#: A probe batch: corpus-vocabulary tokens plus a few the index never saw.
query_batches = st.lists(
    st.lists(
        st.one_of(st.integers(0, 59).map("t{:03d}".format),
                  st.sampled_from(["zz-0", "zz-1"])),
        max_size=14,
    ),
    min_size=1, max_size=6,
)
PROBE = "service.probe"


class TestOneScan:
    """There is one candidate scan; a slice only narrows the fragments it
    owns, a full index owns them all, and a probe is a batch of one."""

    @settings(max_examples=60, deadline=None)
    @given(owners=st.lists(st.integers(0, 7), min_size=8, max_size=8),
           batch=query_batches,
           theta=st.sampled_from([0.3, 0.5, 0.8]),
           func=st.sampled_from(FUNCS))
    def test_any_partition_of_the_fragments(self, index, corpus, owners,
                                            batch, theta, func):
        """``owners[v]`` names fragment ``v``'s slice: the slices' candidate
        sets overlap — each lists a candidate at its own first hit — but
        their union is the full index's, the smallest ``qpos`` a
        candidate was listed at is the full index's, their hit lists are
        disjoint, and their gathered answers are the index's and the
        brute-force scan's."""
        fragments_of = {}
        for fragment, owner in enumerate(owners):
            fragments_of.setdefault(owner, []).append(fragment)
        slices = [ShardSlice.carve(index, fragments)
                  for fragments in fragments_of.values()]
        queries = [index.encode_query(tokens) for tokens in batch]
        whole = index._scan_candidates(queries, theta, func, None)
        parts = [slice_._scan_candidates(queries, theta, func, None)
                 for slice_ in slices]
        answers = [slice_.probe_batch(queries, theta, func)
                   for slice_ in slices]
        expected = index.probe_batch(queries, theta, func)
        for qi, tokens in enumerate(batch):
            first_hit = {}
            for part in parts:
                for rid, qpos in part[qi].items():
                    first_hit[rid] = min(qpos, first_hit.get(rid, qpos))
            assert first_hit == whole[qi]
            reported = set()
            for answer in answers:
                rids = {hit.rid for hit in answer[qi]}
                assert reported.isdisjoint(rids)
                reported |= rids
            gathered = sorted(
                (hit for answer in answers for hit in answer[qi]),
                key=lambda hit: (-hit.score, hit.rid),
            )
            assert gathered == expected[qi]
            assert gathered == brute_force_search(corpus, tokens, theta, func)

    @settings(max_examples=60, deadline=None)
    @given(owners=st.lists(st.integers(0, 7), min_size=8, max_size=8),
           batch=query_batches,
           theta=st.sampled_from([0.3, 0.5, 0.8]),
           func=st.sampled_from(FUNCS))
    def test_a_hit_is_reported_where_its_first_common_token_lives(
            self, index, corpus, owners, batch, theta, func):
        """The claim rule against an oracle that shares no code with the
        probe: a slice's answer is exactly the brute-force hits whose
        first common token falls in a fragment it owns — each hit from
        that one slice and no other."""
        queries = [index.encode_query(tokens) for tokens in batch]
        for owner in set(owners):
            answer = ShardSlice.carve(
                index, [v for v in range(8) if owners[v] == owner]
            ).probe_batch(queries, theta, func)
            for qi, tokens in enumerate(batch):
                assert answer[qi] == [
                    hit
                    for hit in brute_force_search(corpus, tokens, theta, func)
                    if owners[first_common_fragment(
                        index, tokens, corpus.get(hit.rid))] == owner
                ]

    @settings(max_examples=40, deadline=None)
    @given(batch=query_batches,
           theta=st.sampled_from([0.3, 0.5, 0.8]),
           func=st.sampled_from(FUNCS))
    def test_owning_every_fragment_is_the_full_index(self, index, batch,
                                                     theta, func):
        everything = ShardSlice.carve(index, range(index.n_fragments))
        queries = [index.encode_query(tokens) for tokens in batch]
        full, sliced = Counters(), Counters()
        assert everything.probe_batch(
            queries, theta, func, counters=sliced
        ) == index.probe_batch(queries, theta, func, counters=full)
        assert sliced.group(PROBE) == full.group(PROBE)
        assert "ceded_candidates" not in sliced.group(PROBE)

    @settings(max_examples=40, deadline=None)
    @given(owned=st.sets(st.integers(0, 7), min_size=1),
           batch=query_batches,
           theta=st.sampled_from([0.3, 0.5, 0.8]),
           func=st.sampled_from(FUNCS))
    def test_a_batch_is_n_batches_of_one(self, index, owned, batch, theta,
                                         func):
        """Same hits, same first-hit query positions (all the claim rule
        reads), and every surviving counter the same; only
        ``posting_lookups`` may shrink (tokens shared across the batch
        are looked up once)."""
        for scanner in (index, ShardSlice.carve(index, owned)):
            queries = [scanner.encode_query(tokens) for tokens in batch]
            together, alone = Counters(), Counters()
            hits = scanner.probe_batch(queries, theta, func,
                                       counters=together)
            assert hits == [
                scanner.probe_batch([query], theta, func, counters=alone)[0]
                for query in queries
            ]
            assert scanner._scan_candidates(queries, theta, func, None) == [
                scanner._scan_candidates([query], theta, func, None)[0]
                for query in queries
            ]
            batched, singles = together.group(PROBE), alone.group(PROBE)
            assert (batched.pop("posting_lookups", 0)
                    <= singles.pop("posting_lookups", 0))
            assert batched == singles


def _entry_points(index):
    """name → ``call(queries, theta, func)`` over every in-process way to
    probe token lists (the wire's is in ``tests/test_net_server.py``)."""
    router = build_cluster(index, n_shards=3, replication=1)
    streaming = StreamingIndex.create(InMemoryDFS(), records=None,
                                      n_vertical=4)

    def encoded(target, call):
        return lambda queries, theta, func: call(
            [target.encode_query(tokens) for tokens in queries], theta, func)

    def each(call):
        return lambda queries, theta, func: [
            call(tokens, theta, func) for tokens in queries]

    return {
        "index.probe": each(index.probe),
        "index.probe_batch": encoded(index, index.probe_batch),
        "router.search": each(
            lambda tokens, theta, func: router.search(tokens, theta,
                                                      func=func)),
        "router.search_batch": lambda queries, theta, func:
            router.search_batch(queries, theta, func=func),
        "streaming.probe": each(streaming.probe),
        "streaming.probe_batch": encoded(streaming, streaming.probe_batch),
    }


class TestThetaFuncValidation:
    """θ and func are judged before the queries are looked at: an empty
    batch, an empty query and an unknown-tokens-only query are refused
    exactly like a query that would have reached the thresholds."""

    QUERIES = {
        "empty-batch": [],
        "empty-query": [[]],
        "unknown-only": [["never-indexed", "nor-this"]],
        "known": [["t000", "t001", "t002"]],
    }

    @pytest.fixture(scope="class")
    def entry_points(self, index):
        return _entry_points(index)

    @pytest.mark.parametrize("theta", [0, -0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_bad_theta_is_a_config_error(self, entry_points, shape, theta):
        for name, call in entry_points.items():
            if shape == "empty-batch" and not name.endswith("_batch"):
                continue  # a single-query entry point has no empty batch
            with pytest.raises(ConfigError, match="similarity threshold"):
                call(self.QUERIES[shape], theta, "jaccard")

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_unknown_func_is_a_config_error(self, entry_points, shape):
        for name, call in entry_points.items():
            if shape == "empty-batch" and not name.endswith("_batch"):
                continue
            with pytest.raises(ConfigError, match="similarity function"):
                call(self.QUERIES[shape], 0.5, "bogus")

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_k_below_one_is_a_config_error(self, cluster, shape, k):
        queries = self.QUERIES[shape]
        calls = [lambda: cluster.search_batch(queries, 0.5, k=k)]
        if shape != "empty-batch":
            calls += [lambda: cluster.search(queries[0], 0.5, k=k),
                      lambda: cluster.search_partial(queries[0], 0.5, k=k)]
        for call in calls:
            with pytest.raises(ConfigError, match=f"k must be >= 1, got {k}"):
                call()

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_good_arguments_still_answer(self, entry_points, shape):
        for call in entry_points.values():
            answers = call(self.QUERIES[shape], 1.0, "cosine")
            assert len(answers) == len(self.QUERIES[shape])


class TestIngestLeg:
    """The write tier rides the batch: one ``ingest-probe`` leg per
    ``search_batch``, exact over base + stream, typed when it is down."""

    @pytest.fixture
    def tiered(self, corpus):
        tracer = Tracer()
        router = build_cluster(
            RecordCollection(list(corpus)[:70]), n_shards=4, replication=2,
            n_vertical=8, tracer=tracer,
        )
        streaming = StreamingIndex.attach(
            InMemoryDFS(), "ingest", router.order, router.partitioner,
            config=IngestConfig(memtable_limit=12, fanout=8),
        )
        router.attach_ingest(streaming)
        stream = list(corpus)[70:]
        for i in range(0, len(stream), 10):
            router.apply_batch(stream[i:i + 10])
        status = streaming.status()
        # Bootstrap + flushed generations, and a memtable still filling.
        assert len(status["generations"]) >= 3
        assert status["memtable"]["records"] > 0
        return router, tracer

    @staticmethod
    def distinct_queries(corpus):
        return [list(tokens) for tokens in
                dict.fromkeys(record.tokens for record in corpus[::9])]

    def test_one_leg_per_batch(self, tiered, corpus):
        router, tracer = tiered
        queries = self.distinct_queries(corpus)
        node = router.ingest
        before = node.counters.get("cluster.node", "probes")
        mark = len(tracer.spans())
        batch = router.search_batch(queries, 0.5)
        legs = [span for span in tracer.spans()[mark:]
                if span.name == "ingest-probe"]
        assert [leg.attrs["queries"] for leg in legs] == [len(queries)]
        assert legs[0].attrs["hits"] > 0
        assert (node.counters.get("cluster.node", "probes")
                == before + len(queries))
        assert batch == [router.search(tokens, 0.5) for tokens in queries]
        assert batch == [brute_force_search(corpus, tokens, 0.5)
                         for tokens in queries]

    def test_ingest_node_down(self, tiered, corpus):
        router, _tracer = tiered
        queries = self.distinct_queries(corpus)
        router.ingest.fail()
        with pytest.raises(ClusterError, match="ingest tier down"):
            router.search(queries[0], 0.5)
        with pytest.raises(ClusterError, match="ingest tier down"):
            router.search_batch(queries, 0.5)
        base = list(corpus)[:70]
        for tokens in queries:
            partial = router.search_partial(tokens, 0.5)
            assert not partial.complete
            assert partial.missing_shards == (-1,)
            assert list(partial.hits) == brute_force_search(base, tokens, 0.5)


class TestRouting:
    def test_scatter_skips_non_target_shards(self, cluster):
        # A one-token query touches one fragment, hence one shard.
        token = cluster.tokens_of(0)[0]
        query = cluster.encode_query([token])
        fragments = cluster.target_fragments(
            query, 0.9, SimilarityFunction.JACCARD
        )
        assert len(fragments) == 1
        target = cluster.plan.shard_of(fragments[0])
        cluster.search([token], 0.9)
        for shard in range(cluster.n_shards):
            probes = sum(
                cluster.replica(shard, r).counters.get(
                    "cluster.node", "probes")
                for r in range(cluster.replication)
            )
            assert probes == (1 if shard == target else 0)

    def test_unknown_tokens_probe_nothing(self, cluster):
        assert cluster.search(["never-indexed"], 0.5) == []
        assert cluster.metrics.get("cluster.route", "shards_probed") == 0

    def test_rids_and_tokens_of(self, cluster, corpus):
        assert cluster.rids() == [record.rid for record in corpus]
        assert set(cluster.tokens_of(5)) == set(corpus[5].tokens)
        with pytest.raises(DataError):
            cluster.tokens_of(10_000)

    def test_heat_accounting(self, cluster):
        cluster.search(cluster.tokens_of(0), 0.5)
        assert sum(cluster.fragment_heat().values()) > 0
        assert sum(cluster.shard_heat()) == sum(
            cluster.fragment_heat().values()
        )

    def test_no_heat_and_recorded_latency_on_failed_requests(self, index):
        """A request that dies on its deadline charges no fragment heat
        — only answered scatters count toward rebalancing — but it IS
        recorded in the latency histogram (failures are load too), on
        the same clock the deadline check read."""
        from repro.chaos import ChaosClock
        from repro.errors import DeadlineExceededError

        clock = ChaosClock()
        router = build_cluster(index, n_shards=3, clock=clock,
                               sleep=clock.sleep)
        tokens = router.tokens_of(0)
        for shard in range(router.n_shards):
            router.replica(shard, 0).fault_hook = (
                lambda target: clock.advance(1.0)
            )
        with pytest.raises(DeadlineExceededError):
            router.search(tokens, 0.5, deadline=0.5)
        assert sum(router.fragment_heat().values()) == 0
        info = router.latency.snapshot()
        assert info["count"] == 1
        assert info["max_ms"] >= 500.0
        # A served request on the same router does charge heat.
        for shard in range(router.n_shards):
            router.replica(shard, 0).fault_hook = None
        router.search(tokens, 0.5)
        assert sum(router.fragment_heat().values()) > 0

    def test_status_shape(self, cluster):
        cluster.search(cluster.tokens_of(0), 0.5)
        status = cluster.status()
        assert status["shards"] == 4
        assert status["replication"] == 2
        assert status["fragments"] == cluster.plan.n_fragments
        assert len(status["health"]) == 4
        assert status["route"]["searches"] == 1

    def test_config_validation(self, index):
        router = build_cluster(index, n_shards=2)
        with pytest.raises(ConfigError):
            ClusterRouter(router.order, router.partitioner, router.plan,
                          groups=[[]] * 2)
        with pytest.raises(ConfigError):
            ClusterRouter(router.order, router.partitioner, router.plan,
                          groups=[router._groups[0]])
        with pytest.raises(ConfigError):
            build_cluster(index, n_shards=2, replication=0)


class TestAdmissionControl:
    def test_sheds_when_saturated(self, index):
        router = build_cluster(index, n_shards=2)
        for _ in range(MAX_IN_FLIGHT):  # occupy every slot
            assert router._admission.acquire(timeout=1)
        try:
            with pytest.raises(ClusterOverloadError):
                router.search(router.tokens_of(0), 0.5)
        finally:
            for _ in range(MAX_IN_FLIGHT):
                router._admission.release()
        assert router.metrics.get("cluster.route", "shed") == 1
        # Capacity released: the next request is served normally.
        assert router.search(router.tokens_of(0), 0.3)

    def test_concurrent_searches_within_capacity(self, index):
        router = build_cluster(index, n_shards=2)
        errors: list = []

        def worker():
            try:
                router.search(router.tokens_of(0), 0.5)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


def _query_routed_at(router, shard):
    """Tokens of some indexed record whose scatter set includes ``shard``."""
    owned = set(router.plan.fragments_of(shard))
    for rid in router.rids():
        tokens = router.tokens_of(rid)
        query = router.encode_query(tokens)
        targets = router.target_fragments(
            query, 0.3, SimilarityFunction.JACCARD
        )
        if owned & set(targets):
            return tokens
    pytest.fail(f"no query routed to shard {shard}")


class TestFailover:
    def test_dead_replica_skipped(self, cluster):
        cluster.replica(0, 0).fail()
        for record_tokens in (cluster.tokens_of(0), cluster.tokens_of(1)):
            assert isinstance(cluster.search(record_tokens, 0.3), list)
        assert cluster.replica(0, 0).counters.get(
            "cluster.node", "probes") == 0

    def test_mid_probe_failure_fails_over(self, cluster, index):
        # The replica answers the health check but dies on probe — the
        # router must mark it dead, count a failover and still answer.
        tokens = _query_routed_at(cluster, shard=0)
        node = cluster.replica(0, 0)
        node.alive = False
        node.ping = lambda: True  # lies to the health check
        expected = index.probe(tokens, 0.3)
        for _ in range(2 * cluster.replication):
            assert cluster.search(tokens, 0.3) == expected
        assert cluster.metrics.get("cluster.route", "failovers") >= 1
        assert node.counters.get("cluster.node", "probes") == 0

    def test_all_replicas_down_raises(self, cluster):
        for r in range(cluster.replication):
            cluster.replica(0, r).fail()
        tokens = _query_routed_at(cluster, shard=0)
        with pytest.raises(ClusterError, match="replicas down"):
            cluster.search(tokens, 0.3)
        assert cluster.metrics.get("cluster.route", "unavailable") == 1

    def test_restore_brings_replica_back(self, cluster):
        node = cluster.replica(2, 1)
        node.fail()
        assert cluster.health_check()[2][1] is False
        node.restore()
        assert cluster.health_check()[2][1] is True


class TestRebalance:
    def test_noop_when_balanced(self, cluster):
        assert cluster.rebalance() == []

    def test_migrations_cool_the_hot_shard(self, cluster):
        inject_skew(cluster)
        before = cluster.heat_report().max_over_mean
        moves = cluster.rebalance()
        after = cluster.heat_report().max_over_mean
        assert moves
        assert after < before
        for move in moves:
            assert cluster.plan.shard_of(move.fragment) == move.dst
            assert move.heat > 0
        assert cluster.metrics.get("cluster.route", "migrations") == len(moves)

    def test_migration_moves_postings_between_slices(self, cluster, index):
        inject_skew(cluster)
        moves = cluster.rebalance()
        assert moves
        move = moves[0]
        donor = cluster.replica(move.src, 0).slice
        receiver = cluster.replica(move.dst, 0).slice
        assert move.fragment not in donor.owned_fragments
        assert move.fragment in receiver.owned_fragments
        assert not donor._postings[move.fragment]

    @pytest.fixture
    def saved(self, tmp_path):
        """80 wiki records as a saved 4-shard × 2-replica directory."""
        router = build_cluster(make_corpus("wiki", 80, seed=3), n_shards=4,
                               replication=2, n_vertical=8)
        save_cluster(router, tmp_path / "wiki.cluster")
        return tmp_path / "wiki.cluster"

    def test_rebalance_under_organic_traffic(self, saved):
        """Heat from a Zipf replay, not planted: after a rebalance the
        same replay spreads no worse."""
        router = load_cluster(saved)
        zipf_replay(router, 40, 1.5, 0.6, seed=0)
        before = router.heat_report().cv
        assert router.rebalance()
        earlier = router.shard_heat()
        zipf_replay(router, 40, 1.5, 0.6, seed=0)
        replayed = [now - then for now, then in zip(router.shard_heat(), earlier)]
        assert summarize_loads(replayed).cv <= before

    def test_organic_traffic_is_deterministic(self, saved):
        routers = [load_cluster(saved) for _ in range(2)]
        for router in routers:
            zipf_replay(router, 40, 1.5, 0.6, seed=5)
        first, second = routers
        assert first.shard_heat() == second.shard_heat()
        assert (first.metrics.group("cluster.route")
                == second.metrics.group("cluster.route"))

    @settings(max_examples=25, deadline=None)
    @given(moves=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 3)),
        min_size=1, max_size=6,
    ))
    def test_random_migrations_keep_slices_exact(self, index, corpus, moves):
        """Any sequence of moves, independent replicas, checked after each
        one: a slice holds the id column of every record (a migration
        ships postings, never records), digests as a slice freshly carved
        along the same plan, and answers the oracle's."""
        router = build_cluster(index, n_shards=4, replication=2,
                               independent_replicas=True)
        probes = [corpus[i] for i in range(0, len(corpus), 17)]
        for fragment, dst in moves:
            src = router.plan.shard_of(fragment)
            if src == dst:
                continue
            router._migrate(fragment, src, dst)
            for shard in range(router.n_shards):
                owned = router.plan.fragments_of(shard)
                fresh = ShardSlice.carve(index, owned).content_digests()
                for replica in range(router.replication):
                    slice_ = router.replica(shard, replica).slice
                    assert slice_.owned_fragments == frozenset(owned)
                    assert slice_._ranks.keys() == index._ranks.keys()
                    assert slice_.content_digests() == fresh
            for record in probes:
                for theta in THETAS:
                    assert router.search(record.tokens, theta) == \
                        brute_force_search(corpus, record.tokens, theta)


class TestTracing:
    def test_span_tree(self, index):
        tracer = Tracer()
        router = build_cluster(index, n_shards=4, replication=1,
                               tracer=tracer)
        router.search(router.tokens_of(0), 0.5)
        spans = tracer.spans()
        names = {span.name for span in spans}
        assert {"cluster-batch", "route", "merge", "shard-probe"} <= names
        phases = {span.phase for span in spans}
        assert {"cluster", "service"} <= phases
        root = next(s for s in spans if s.name == "cluster-batch")
        assert root.attrs["queries"] == 1
        children = [s for s in spans if s.parent_id == root.span_id]
        assert {"route", "merge"} <= {s.name for s in children}

    def test_traced_equals_untraced(self, index, corpus):
        traced = build_cluster(index, n_shards=4, tracer=Tracer())
        plain = build_cluster(index, n_shards=4)
        for record in corpus[:20]:
            assert traced.search(record.tokens, 0.5) == plain.search(
                record.tokens, 0.5
            )

    def test_thread_scatter_traces_deterministically(self, index):
        # With hedging on, every leg runs on the hedge pool's threads and
        # traces into a leg-local tracer; spans are adopted in shard order.
        tracer = Tracer()
        router = build_cluster(index, n_shards=4, replication=2,
                               tracer=tracer, hedge=HedgeConfig())
        router.search(router.tokens_of(0), 0.3)
        probes = [s for s in tracer.spans() if s.name == "shard-probe"]
        shards = [s.attrs["shard"] for s in probes]
        assert shards == sorted(shards)
