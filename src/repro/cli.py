"""Command-line interface: ``python -m repro <verb>``.

The argparse tree below is the verb table — ``python -m repro -h`` and
``python -m repro <verb> -h`` list the verbs and their flags.  Batch
verbs (``generate``, ``stats``, ``join``, ``topk``, ``estimate``) run the
FS-Join pipeline and its baselines; serving verbs (``index``, ``search``,
``cluster build|search|status``, ``ingest``, ``serve``, ``query``) build
and probe the search stack, in-process or over TCP; ``chaos`` drills
fault recovery and ``trace`` summarizes a ``--trace`` file.  ``join``,
``search``, ``cluster search``, ``ingest``, ``serve`` and ``chaos`` take
``--trace PATH``: spans as JSONL plus a Chrome ``trace_event`` twin;
results are bit-identical with or without it.

Every failure — a bad flag value, a missing file, a typed
:class:`~repro.errors.ReproError` from any layer — reaches ``main`` and
exits 1 with one ``error: ...`` line on stderr (a drill or ``ingest
--verify`` that fails prints its report first).

Examples::

    python -m repro generate --corpus wiki --records 500 --output wiki.txt
    python -m repro stats wiki.txt
    python -m repro join wiki.txt --theta 0.8 --algorithm fsjoin
    python -m repro join left.txt --right right.txt --theta 0.8
    python -m repro join wiki.txt --theta 0.8 --trace run.jsonl
    python -m repro topk wiki.txt -k 10
    python -m repro index wiki.txt --output wiki.idx
    python -m repro search wiki.idx --query "w007 w012 w040" --theta 0.6
    python -m repro search wiki.idx --rid 17 --theta 0.8 -k 5
    python -m repro cluster build wiki.txt --output wiki.cluster \\
        --shards 4 --replication 2
    python -m repro cluster search wiki.cluster --rid 17 --theta 0.8 \\
        --fail-shard 1
    python -m repro ingest wiki.txt --base 100 --batch-size 32 --verify
    python -m repro serve wiki.cluster --port 7777 &
    python -m repro query --connect 127.0.0.1:7777 \\
        --query "w007 w012 w040" --theta 0.6
    python -m repro query --connect 127.0.0.1:7777 --drain
    python -m repro chaos --seed 7 --scenario net
    python -m repro chaos --seed 7 --scenario gateway
    python -m repro chaos --seed 7 --scenario ingest
    python -m repro chaos --seed 7
    python -m repro chaos --seed 7 --scenario join --trace chaos.jsonl
    python -m repro trace run.jsonl --chrome run.chrome.json
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.baselines import MassJoin, RIDPairsPPJoin, VSmartJoin
from repro.core import FSJoin, FSJoinConfig, PivotMethod
from repro.core.topk import topk_similar_pairs
from repro.data import dataset_stats, load_records, make_corpus, save_records
from repro.errors import ClusterError, ConfigError, DataError, ReproError
from repro.mapreduce.executors import ExecutorKind
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.observability import (
    NOOP_TRACER,
    Tracer,
    chrome_path_for,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.similarity.functions import SimilarityFunction

ALGORITHMS = (
    "fsjoin",
    "fsjoin-v",
    "ridpairs",
    "vsmart",
    "massjoin",
    "massjoin-light",
    "lsh",
)


class _Parser(argparse.ArgumentParser):
    """A usage error is a :class:`ConfigError`, so ``main`` prints it as
    the one ``error: --flag ...`` line every other failure gets."""

    def error(self, message):
        if message.startswith("argument "):
            flag, _, message = message[len("argument "):].partition(": ")
            message = f"{flag} {message}"
        raise ConfigError(message)


# Types for the values no layer below the CLI range-checks.
def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """A finite number > 0: a zero or NaN sleep would spin the event loop,
    an infinite one overflows the socket timeout."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be > 0 and finite, got {text}"
        )
    return value


def host_port(text: str):
    """``HOST:PORT`` -> ``(host, port)``."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"must be HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"port must be an integer, got {port_text!r}"
        ) from None
    if not 0 < port <= 65535:
        raise argparse.ArgumentTypeError(f"port out of range: {port}")
    return host, port


def _add_func(parser) -> None:
    parser.add_argument("--func", default="jaccard",
                        choices=[f.value for f in SimilarityFunction])


def _add_trace(parser, spans: str) -> None:
    parser.add_argument("--trace", metavar="PATH",
                        help=f"record {spans}; writes JSONL to PATH plus a "
                             "Chrome trace_event JSON twin")


def _add_search(parser, rid: bool):
    """θ, ``--func``, ``-k`` and the required one-of query group (returned
    for verb-specific members)."""
    parser.add_argument("--theta", type=float, default=0.8)
    _add_func(parser)
    parser.add_argument("-k", type=int, default=None,
                        help="return at most k hits per query")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--query", help="probe tokens (whitespace-separated)")
    if rid:
        what.add_argument("--rid", type=int,
                          help="probe an indexed record by id (itself "
                               "excluded)")
    what.add_argument("--query-file",
                      help="batch probe: one record per line, corpus format "
                           "(over the wire: one search_batch frame)")
    return what


def _add_layout(parser) -> None:
    """How a build cuts the index into fragments."""
    parser.add_argument("--vertical", type=int, default=30)
    parser.add_argument("--pivot-method",
                        choices=[m.value for m in PivotMethod],
                        default=PivotMethod.EVEN_TF.value)
    parser.add_argument("--pivot-seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    executors = [k.value for k in ExecutorKind]
    parser = _Parser(
        prog="repro",
        description="FS-Join reproduction: distributed set similarity joins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic corpus")
    generate.set_defaults(handler=_cmd_generate)
    generate.add_argument("--corpus", choices=("email", "pubmed", "wiki"),
                          default="wiki")
    generate.add_argument("--records", type=int, default=500)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)

    stats = sub.add_parser("stats", help="dataset statistics (Table III)")
    stats.set_defaults(handler=_cmd_stats)
    stats.add_argument("input")

    join = sub.add_parser("join", help="similarity self-join or R-S join")
    join.set_defaults(handler=_cmd_join)
    join.add_argument("input")
    join.add_argument("--right", help="second collection (R-S join)")
    join.add_argument("--theta", type=float, default=0.8)
    _add_func(join)
    join.add_argument("--algorithm", choices=ALGORITHMS, default="fsjoin")
    join.add_argument("--workers", type=int, default=10)
    join.add_argument("--vertical", type=int, default=30)
    join.add_argument("--horizontal", type=int, default=10)
    join.add_argument("--executor", choices=executors, default="serial",
                      help="task-execution backend: serial (default, "
                           "deterministic single process), thread, or "
                           "process (real cores)")
    join.add_argument("--quiet", action="store_true",
                      help="suppress the metrics summary on stderr")
    _add_trace(join, "spans for every pipeline phase, job and task attempt "
                     "(results are unchanged)")

    topk = sub.add_parser("topk", help="k most similar pairs")
    topk.set_defaults(handler=_cmd_topk)
    topk.add_argument("input")
    topk.add_argument("-k", type=int, default=10)
    _add_func(topk)
    topk.add_argument("--workers", type=int, default=10)
    topk.add_argument("--executor", choices=executors, default="serial")

    index = sub.add_parser(
        "index", help="build a persistent similarity-search index"
    )
    index.set_defaults(handler=_cmd_index)
    index.add_argument("input")
    index.add_argument("--output", required=True,
                       help="snapshot file the index is written to")
    _add_layout(index)

    search = sub.add_parser(
        "search", help="probe a similarity-search index (JSON output)"
    )
    search.set_defaults(handler=_cmd_search)
    search.add_argument("index", help="snapshot written by 'repro index'")
    _add_search(search, rid=True)
    _add_trace(search, "per-probe spans (scatter, prefix filter, "
                       "verification)")

    cluster = sub.add_parser(
        "cluster", help="sharded, replicated serving cluster (build/search/"
                        "status)"
    )
    csub = cluster.add_subparsers(dest="cluster_command", required=True)

    cbuild = csub.add_parser(
        "build", help="shard a corpus into a cluster directory"
    )
    cbuild.set_defaults(handler=_cmd_cluster_build)
    cbuild.add_argument("input", help="corpus file to index and shard")
    cbuild.add_argument("--output", required=True,
                        help="cluster directory (index.idx + manifest.json)")
    cbuild.add_argument("--shards", type=int, default=4)
    cbuild.add_argument("--replication", type=int, default=1)
    _add_layout(cbuild)

    csearch = csub.add_parser(
        "search", help="scatter-gather probe of a cluster (JSON output)"
    )
    csearch.set_defaults(handler=_cmd_cluster_search)
    csearch.add_argument("cluster_dir",
                         help="directory written by 'repro cluster build'")
    _add_search(csearch, rid=True)
    csearch.add_argument("--fail-shard", type=int, metavar="SHARD",
                         help="inject a failure: kill replica 0 of this shard "
                              "before searching (exercises failover)")
    _add_trace(csearch, "the cross-shard request tree (route, per-shard "
                        "probes, merge)")

    cstatus = csub.add_parser(
        "status", help="plan, health, heat and balance of a cluster (JSON)"
    )
    cstatus.set_defaults(handler=_cmd_cluster_status)
    cstatus.add_argument("cluster_dir")

    ingest = sub.add_parser(
        "ingest",
        help="stream a corpus through the WAL + memtable + compaction "
             "write path and print ingest statistics",
    )
    ingest.set_defaults(handler=_cmd_ingest)
    ingest.add_argument("input", help="corpus file to stream in")
    ingest.add_argument("--base", type=int, default=0, metavar="N",
                        help="records bootstrapped offline as generation 0 "
                             "(the rest stream through the WAL; default 0)")
    ingest.add_argument("--batch-size", type=positive_int, default=32)
    ingest.add_argument("--memtable-limit", type=int, default=64,
                        help="records the memtable absorbs before an "
                             "automatic flush (default 64)")
    ingest.add_argument("--fanout", type=int, default=4,
                        help="leveled-compaction fanout (default 4)")
    ingest.add_argument("--vertical", type=int, default=30)
    ingest.add_argument("--theta", type=float, default=0.6,
                        help="threshold for the --verify probe sweep")
    ingest.add_argument("--verify", action="store_true",
                        help="after the stream: major-compact and check the "
                             "result is bit-identical to a fresh offline "
                             "index over the same records")
    ingest.add_argument("--snapshot", metavar="PATH",
                        help="save the final index as a regular snapshot "
                             "loadable by 'repro search'")
    _add_trace(ingest, "ingest spans (wal-append, memtable-apply, flush, "
                       "compaction)")

    serve = sub.add_parser(
        "serve", help="TCP server: the gateway over a cluster directory "
                      "behind real sockets (SIGTERM drains gracefully)"
    )
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument("cluster_dir",
                       help="directory written by 'repro cluster build'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7777,
                       help="TCP port; 0 binds an ephemeral port and prints "
                            "the actual one (default 7777)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="largest micro-batch one gateway dispatch round "
                            "hands the router (default 32)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="gateway result-cache capacity (default 256)")
    serve.add_argument("--max-inflight", type=int, default=32,
                       help="per-connection outstanding-request bound; past "
                            "it the reader stops reading and backpressure "
                            "reaches the peer as TCP flow control")
    serve.add_argument("--frame-timeout", type=float, default=30.0,
                       help="seconds a half-sent frame may stall before the "
                            "connection is dropped (default 30)")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       help="seconds a drain waits for peers to hang up "
                            "before closing their sockets (default 5)")
    serve.add_argument("--hedge", action="store_true",
                       help="enable hedged backup probes on the router")
    serve.add_argument("--ingest", action="store_true",
                       help="attach a streaming ingest tier so ingest-append "
                            "frames land (otherwise appends fail typed)")
    serve.add_argument("--heal", action="store_true",
                       help="attach the self-healing control plane: failure "
                            "detection, anti-entropy scrubbing and automatic "
                            "replica rebuild; repair events are logged as "
                            "one-line typed messages")
    serve.add_argument("--heal-interval", type=positive_float, default=1.0,
                       help="seconds between control-plane ticks when --heal "
                            "is on (default 1.0)")
    _add_trace(serve, "on exit, the server's phase=\"net\" spans (one per "
                      "connection and request)")

    query = sub.add_parser(
        "query", help="query a running 'repro serve' over TCP"
    )
    # No --rid or --trace here: their defaults let query share the printer.
    query.set_defaults(handler=_cmd_query, rid=None, trace=None)
    query.add_argument("--connect", required=True, type=host_port,
                       metavar="HOST:PORT",
                       help="address of the running server")
    qwhat = _add_search(query, rid=False)
    qwhat.add_argument("--status", action="store_true",
                       help="print the server's status JSON instead")
    qwhat.add_argument("--drain", action="store_true",
                       help="ask the server to drain gracefully and exit")
    query.add_argument("--tenant", default="default",
                       help="tenant name sent in the handshake (quotas and "
                            "per-tenant latency follow it)")
    query.add_argument("--timeout", type=positive_float, default=5.0,
                       help="per-call socket timeout in seconds (default 5)")

    chaos = sub.add_parser(
        "chaos", help="seeded chaos drill: inject faults, verify recovery"
    )
    chaos.set_defaults(handler=_cmd_chaos)
    chaos.add_argument("--seed", type=int, default=0,
                       help="chaos seed; the same seed injects exactly the "
                            "same faults on every run")
    chaos.add_argument("--scenario", choices=("join", "search", "cluster",
                                              "ingest", "gateway", "net",
                                              "heal", "all"),
                       default="all",
                       help="which layer to drill (default: all)")
    chaos.add_argument("--theta", type=float, default=0.7)
    _add_func(chaos)
    chaos.add_argument("--executor", choices=executors, default="serial",
                       help="executor the join scenario runs on")
    _add_trace(chaos, "the drill's spans — every injected fault "
                      "(phase=\"fault\") next to every recovery action "
                      "(phase=\"recovery\")")

    trace = sub.add_parser(
        "trace", help="summarize/convert a JSONL trace written with --trace"
    )
    trace.set_defaults(handler=_cmd_trace)
    trace.add_argument("input", help="JSONL trace file")
    trace.add_argument("--chrome", metavar="PATH",
                       help="also write a Chrome trace_event JSON for "
                            "chrome://tracing / Perfetto")

    estimate = sub.add_parser(
        "estimate", help="sampling-based result-count estimate"
    )
    estimate.set_defaults(handler=_cmd_estimate)
    estimate.add_argument("input")
    estimate.add_argument("--theta", type=float, default=0.8)
    _add_func(estimate)
    estimate.add_argument("--sample-size", type=int, default=None)
    estimate.add_argument("--trials", type=int, default=3)
    estimate.add_argument("--seed", type=int, default=0)

    return parser


def _make_algorithm(args, cluster):
    theta, func = args.theta, SimilarityFunction(args.func)
    if args.algorithm == "fsjoin":
        return FSJoin(
            FSJoinConfig(theta=theta, func=func, n_vertical=args.vertical,
                         n_horizontal=args.horizontal),
            cluster,
        )
    if args.algorithm == "fsjoin-v":
        return FSJoin(
            FSJoinConfig(theta=theta, func=func, n_vertical=args.vertical),
            cluster,
        )
    if args.algorithm == "ridpairs":
        return RIDPairsPPJoin(theta, func, cluster)
    if args.algorithm == "vsmart":
        return VSmartJoin(theta, func, cluster)
    if args.algorithm == "massjoin":
        return MassJoin(theta, func, cluster)
    if args.algorithm == "massjoin-light":
        return MassJoin(theta, func, cluster, variant="merge+light")
    from repro.approx.distributed import DistributedLSHJoin

    return DistributedLSHJoin(theta, func, cluster)


def _cmd_generate(args) -> int:
    records = make_corpus(args.corpus, args.records, seed=args.seed)
    save_records(records, args.output)
    print(f"wrote {len(records)} records to {args.output}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    stats = dataset_stats(load_records(args.input))
    for key, value in stats.as_row().items():
        print(f"{key}\t{value}")
    return 0


def _export_trace(tracer: Tracer, path: str) -> None:
    """Write a tracer's spans as JSONL plus the Chrome-trace JSON twin."""
    spans = tracer.spans()
    write_jsonl(spans, path)
    chrome = chrome_path_for(path)
    write_chrome_trace(spans, chrome)
    print(
        f"trace: {len(spans)} spans -> {path} (+ {chrome} for "
        "chrome://tracing / Perfetto)",
        file=sys.stderr,
    )


def _print_phase_breakdown(tracer: Tracer) -> None:
    from repro.analysis.report import format_phase_breakdown

    print(format_phase_breakdown(tracer.spans()), file=sys.stderr)


def _cmd_join(args) -> int:
    tracer = Tracer() if args.trace else NOOP_TRACER
    cluster = SimulatedCluster(
        ClusterSpec(workers=args.workers, executor=args.executor),
        tracer=tracer,
    )
    left = load_records(args.input)
    started = time.perf_counter()
    algorithm = _make_algorithm(args, cluster)
    if args.right:
        if not isinstance(algorithm, FSJoin):
            raise ConfigError(
                "R-S joins are supported by the fsjoin algorithms only"
            )
        result = algorithm.run(left, right=load_records(args.right))
    else:
        result = algorithm.run(left)
    wall = time.perf_counter() - started

    for (rid_a, rid_b), score in sorted(result.result_pairs.items()):
        print(f"{rid_a}\t{rid_b}\t{score:.6f}")
    if not args.quiet:
        times = result.simulated_time(cluster.spec)
        print(
            f"{result.algorithm}: {len(result.pairs)} pairs, "
            f"wall {wall:.2f}s, shuffle {result.total_shuffle_bytes()/1e6:.2f} MB, "
            f"simulated {times.total_s:.1f}s on {args.workers} workers",
            file=sys.stderr,
        )
    if args.trace:
        _export_trace(tracer, args.trace)
        if not args.quiet:
            _print_phase_breakdown(tracer)
    return 0


def _cmd_topk(args) -> int:
    cluster = SimulatedCluster(
        ClusterSpec(workers=args.workers, executor=args.executor)
    )
    records = load_records(args.input)
    pairs = topk_similar_pairs(
        records, args.k, func=SimilarityFunction(args.func), cluster=cluster
    )
    for (rid_a, rid_b), score in pairs:
        print(f"{rid_a}\t{rid_b}\t{score:.6f}")
    return 0


def _cmd_estimate(args) -> int:
    from repro.similarity.selectivity import estimate_result_count

    records = load_records(args.input)
    estimate = estimate_result_count(
        records,
        args.theta,
        func=SimilarityFunction(args.func),
        sample_size=args.sample_size,
        trials=args.trials,
        seed=args.seed,
    )
    print(f"estimated_pairs\t{estimate.estimated_pairs:.1f}")
    print(f"sample_size\t{estimate.sample_size}")
    print(f"trials\t{estimate.trials}")
    return 0


def _cmd_index(args) -> int:
    from repro.service import SegmentIndex, save_index

    records = load_records(args.input)
    started = time.perf_counter()
    index = SegmentIndex.build(
        records,
        n_vertical=args.vertical,
        pivot_method=args.pivot_method,
        pivot_seed=args.pivot_seed,
    )
    size = save_index(index, args.output)
    wall = time.perf_counter() - started
    stats = index.posting_stats()
    columnar_mb = (stats["posting_bytes"] + stats["record_bytes"]) / 1e6
    print(
        f"indexed {stats['records']} records into {stats['fragments']} "
        f"fragments ({stats['postings']} postings, vocab {stats['vocab']}, "
        f"{columnar_mb:.2f} MB columnar) "
        f"in {wall:.2f}s -> {args.output} ({size/1e6:.2f} MB)",
        file=sys.stderr,
    )
    return 0


def _hit_rows(hits):
    return [{"rid": hit.rid, "score": round(hit.score, 6)} for hit in hits]


def _read_query_file(path):
    """Load a query file, turning I/O and encoding failures into clear
    :class:`~repro.errors.DataError` messages (exit 1, never a traceback)."""
    try:
        return load_records(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise DataError(f"cannot read query file {path}: {reason}") from None
    except UnicodeDecodeError as exc:
        raise DataError(
            f"query file {path} is not readable UTF-8 text: {exc}"
        ) from None


def _rid_tokens(backend, rid):
    """An indexed record's tokens, with a CLI-clear unknown-rid message."""
    try:
        return list(backend.tokens_of(rid))
    except DataError:
        raise DataError(
            f"unknown --rid {rid}: no such record in the index "
            "(probe by --query instead, or re-index)"
        ) from None


def _print_search(args, backend, tracer) -> int:
    """Answer ``repro search`` / ``cluster search`` / ``query`` as one JSON
    document.  ``backend`` is a router (one shard for a plain snapshot) or
    a wire client: both answer ``search`` / ``search_batch(tokens, θ, k=,
    func=)`` alike."""
    import json

    func = SimilarityFunction(args.func)
    document = {"theta": args.theta, "func": func.value}
    if args.query_file:
        queries = [record.tokens for record in _read_query_file(args.query_file)]
        results = backend.search_batch(
            queries, args.theta, k=args.k, func=func
        )
        document["results"] = [
            {"query": list(tokens), "hits": _hit_rows(hits)}
            for tokens, hits in zip(queries, results)
        ]
    else:
        if args.rid is not None:
            tokens = _rid_tokens(backend, args.rid)
            hits = backend.search_rid(
                args.rid, args.theta, k=args.k, func=func
            )
        else:
            tokens = args.query.split()
            hits = backend.search(tokens, args.theta, k=args.k, func=func)
        document = {"query": tokens, **document, "hits": _hit_rows(hits)}
    if args.trace:
        document["latency"] = backend.latency.snapshot()
        _export_trace(tracer, args.trace)
        _print_phase_breakdown(tracer)
    print(json.dumps(document))
    return 0


def _cmd_search(args) -> int:
    from repro.cluster import build_cluster
    from repro.service import load_index

    tracer = Tracer() if args.trace else NOOP_TRACER
    router = build_cluster(load_index(args.index), n_shards=1, tracer=tracer)
    return _print_search(args, router, tracer)


def _fail_replica(router, shard) -> None:
    """Apply the ``--fail-shard`` chaos switch (replica 0 of one shard)."""
    if not 0 <= shard < router.n_shards:
        raise ClusterError(
            f"--fail-shard {shard} out of range (cluster has "
            f"{router.n_shards} shards)"
        )
    router.replica(shard, 0).fail()
    print(f"injected failure: shard {shard} replica 0 is down", file=sys.stderr)


def _cmd_cluster_build(args) -> int:
    from repro.cluster import build_cluster, save_cluster

    records = load_records(args.input)
    started = time.perf_counter()
    router = build_cluster(
        records,
        n_shards=args.shards,
        replication=args.replication,
        n_vertical=args.vertical,
        pivot_method=args.pivot_method,
        pivot_seed=args.pivot_seed,
    )
    size = save_cluster(router, args.output)
    wall = time.perf_counter() - started
    report = router.plan.balance_report()
    print(
        f"sharded {len(records)} records into {router.n_shards} shards × "
        f"{router.replication} replicas ({router.plan.n_fragments} fragments, "
        f"planned-load cv {report.cv:.3f}) in {wall:.2f}s -> {args.output} "
        f"({size / 1e6:.2f} MB)",
        file=sys.stderr,
    )
    return 0


def _cmd_cluster_search(args) -> int:
    from repro.cluster import load_cluster

    tracer = Tracer() if args.trace else NOOP_TRACER
    router = load_cluster(args.cluster_dir, tracer=tracer)
    if args.fail_shard is not None:
        _fail_replica(router, args.fail_shard)
    return _print_search(args, router, tracer)


def _cmd_cluster_status(args) -> int:
    import json

    from repro.cluster import load_cluster

    router = load_cluster(args.cluster_dir)
    document = router.status()
    document["records"] = len(router.rids())
    print(json.dumps(document, indent=2))
    return 0


def _cmd_ingest(args) -> int:
    import json
    import pickle

    from repro.data import RecordCollection
    from repro.ingest import IngestConfig, StreamingIndex
    from repro.mapreduce.hdfs import InMemoryDFS
    from repro.service import save_index

    records = load_records(args.input)
    if not 0 <= args.base <= len(records):
        raise ConfigError(
            f"--base {args.base} out of range (corpus has "
            f"{len(records)} records)"
        )
    base = RecordCollection(records[:args.base])
    stream = records[args.base:]

    tracer = Tracer() if args.trace else NOOP_TRACER
    config = IngestConfig(
        memtable_limit=args.memtable_limit, fanout=args.fanout
    )
    dfs = InMemoryDFS()
    streaming = StreamingIndex.create(
        dfs,
        records=base if len(base) else None,
        n_vertical=args.vertical,
        config=config,
        tracer=tracer,
    )
    started = time.perf_counter()
    for i in range(0, len(stream), args.batch_size):
        streaming.apply_batch(stream[i:i + args.batch_size])
    wall = time.perf_counter() - started

    status = streaming.status()
    order_files = dfs.list_prefix(streaming.order_log.path)
    document = {
        "records": status["records"],
        "base": len(base),
        "streamed": len(stream),
        "batches": -(-len(stream) // args.batch_size) if stream else 0,
        "wall_s": round(wall, 4),
        "write_throughput_rps": round(len(stream) / wall, 1) if wall else None,
        "flushes": status["flushes"],
        "compactions": status["compactions"],
        "generations": status["generations"],
        "memtable": status["memtable"],
        "manifest_version": status["manifest_version"],
        "wal": status["wal"],
        # What the stream left on the DFS: the shared order once, and the
        # live generations' payloads, which hold none of it.
        "persisted": {
            "order_files": len(order_files),
            "order_bytes": sum(map(dfs.size_bytes, order_files)),
            "segment_bytes": sum(
                dfs.size_bytes(gen.path) for gen in streaming.generations
            ),
        },
    }

    if args.verify:
        streaming.compact(major=True)
        offline = streaming.to_segment_index()
        structural = pickle.dumps(
            streaming.generations[0].index
        ) == pickle.dumps(offline)
        probe_mismatches = 0
        sample = records[::max(1, len(records) // 50)]
        for record in sample:
            if streaming.probe(record.tokens, args.theta) != offline.probe(
                record.tokens, args.theta
            ):
                probe_mismatches += 1
        document["verify"] = {
            "structural_identical": structural,
            "probes": len(sample),
            "probe_mismatches": probe_mismatches,
            "ok": structural and probe_mismatches == 0,
        }
        if not document["verify"]["ok"]:
            print(json.dumps(document))
            print("error: ingest verification failed — streamed index "
                  "diverges from the offline build", file=sys.stderr)
            return 1

    if args.snapshot:
        size = save_index(streaming.to_segment_index(), args.snapshot)
        document["snapshot"] = {"path": args.snapshot,
                                "bytes": size}
    if args.trace:
        _export_trace(tracer, args.trace)
        _print_phase_breakdown(tracer)
    print(json.dumps(document))
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import json
    import os
    import signal

    from repro.cluster import HedgeConfig, load_cluster
    from repro.gateway import GatewayConfig, SimilarityGateway
    from repro.net import GatewayServer, ServerConfig

    tracer = Tracer() if args.trace else NOOP_TRACER
    hedge = HedgeConfig() if args.hedge else None
    router = load_cluster(args.cluster_dir, tracer=tracer, hedge=hedge)
    if args.ingest:
        from repro.ingest import StreamingIndex
        from repro.mapreduce.hdfs import InMemoryDFS

        router.attach_ingest(StreamingIndex.attach(
            InMemoryDFS(), "serve-ingest", router.order, router.partitioner
        ))
    plane = None
    if args.heal:
        from repro.cluster import ControlPlane, RepairManager

        plane = ControlPlane(
            router,
            repair=RepairManager(router, snapshot_dir=args.cluster_dir),
            tracer=tracer,
        )
    gateway = SimilarityGateway(
        router,
        GatewayConfig(
            max_batch=args.max_batch,
            cache_size=args.cache_size,
        ),
        tracer=tracer,
    )
    server = GatewayServer(
        gateway,
        ServerConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            frame_timeout=args.frame_timeout,
            drain_grace=args.drain_grace,
        ),
        tracer=tracer,
    )

    async def heal_loop() -> None:
        # Tick the control plane between request rounds, logging every
        # decision (suspect/dead/quarantine/rebuild/readmit) as a
        # one-line typed message — the operator-visible repair journal.
        while True:
            await asyncio.sleep(args.heal_interval)
            for event in plane.tick():
                print(event.line(), file=sys.stderr, flush=True)

    async def run() -> None:
        host, port = await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # No signal support here (non-main thread, some
                # platforms): a drain frame still stops the server.
                break
        print(
            f"listening on {host}:{port} "
            f"(cluster {args.cluster_dir}, pid {os.getpid()})",
            file=sys.stderr, flush=True,
        )
        healer = (
            asyncio.ensure_future(heal_loop()) if plane is not None else None
        )
        try:
            await server.wait_drained()
        finally:
            if healer is not None:
                healer.cancel()

    asyncio.run(run())
    if args.trace:
        _export_trace(tracer, args.trace)
    print(json.dumps(server.status()))
    print("drained cleanly", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.net import GatewayClient

    host, port = args.connect
    with GatewayClient(host, port, tenant=args.tenant,
                       timeout=args.timeout) as client:
        if args.status:
            print(json.dumps(client.status()))
        elif args.drain:
            client.drain()
            print("server draining", file=sys.stderr)
        else:
            _print_search(args, client, NOOP_TRACER)
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.chaos import run_recovery_report

    tracer = Tracer() if args.trace else NOOP_TRACER
    report = run_recovery_report(
        args.seed,
        scenario=args.scenario,
        theta=args.theta,
        func=SimilarityFunction(args.func),
        executor=args.executor,
        tracer=tracer,
    )
    print(json.dumps(report.as_dict(), indent=2))
    if args.trace:
        _export_trace(tracer, args.trace)
    if not report.ok:
        failed = [s.scenario for s in report.scenarios if not s.ok]
        print(
            f"error: chaos drill failed (seed {args.seed}): "
            f"{', '.join(failed)} did not recover cleanly",
            file=sys.stderr,
        )
        return 1
    print(
        f"chaos drill ok: seed {args.seed}, "
        f"{len(report.scenarios)} scenario(s), "
        f"{report.total_faults()} faults injected, all recovered",
        file=sys.stderr,
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.analysis.report import format_phase_breakdown

    try:
        spans = read_jsonl(args.input)
    except (ValueError, KeyError) as exc:
        raise DataError(f"invalid trace file {args.input}: {exc}") from None
    if args.chrome:
        events = write_chrome_trace(spans, args.chrome)
        print(f"wrote {events} trace events to {args.chrome}", file=sys.stderr)
    print(format_phase_breakdown(spans, title=f"phase breakdown: {args.input}"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
