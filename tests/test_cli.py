"""Tests for the command-line interface (invoked in-process)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.data import load_records, make_corpus, save_records
from tests.test_cli_errors import assert_one_line_error


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    save_records(make_corpus("wiki", 80, seed=3), path)
    return str(path)


class TestGenerate:
    def test_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        code = main(["generate", "--corpus", "wiki", "--records", "40",
                     "--seed", "1", "--output", str(out)])
        assert code == 0
        assert len(load_records(out)) == 40

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "--records", "30", "--seed", "9", "--output", str(a)])
        main(["generate", "--records", "30", "--seed", "9", "--output", str(b)])
        assert a.read_text() == b.read_text()


class TestStats:
    def test_prints_rows(self, corpus_file, capsys):
        assert main(["stats", corpus_file]) == 0
        out = capsys.readouterr().out
        assert "records\t80" in out
        assert "vocab\t" in out


class TestJoin:
    def test_self_join_tsv(self, corpus_file, capsys):
        code = main(["join", corpus_file, "--theta", "0.8",
                     "--vertical", "6", "--quiet"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        for line in lines:
            rid_a, rid_b, score = line.split("\t")
            assert int(rid_a) < int(rid_b)
            assert 0.8 <= float(score) <= 1.0

    @pytest.mark.parametrize("algorithm", ["ridpairs", "vsmart", "massjoin"])
    def test_algorithms_agree(self, corpus_file, capsys, algorithm):
        main(["join", corpus_file, "--theta", "0.8", "--vertical", "6",
              "--quiet"])
        fsjoin_out = set(capsys.readouterr().out.splitlines())
        main(["join", corpus_file, "--theta", "0.8", "--quiet",
              "--algorithm", algorithm])
        assert set(capsys.readouterr().out.splitlines()) == fsjoin_out

    def test_rs_join(self, corpus_file, tmp_path, capsys):
        right = tmp_path / "right.txt"
        save_records(make_corpus("wiki", 60, seed=4), right)
        code = main(["join", corpus_file, "--right", str(right),
                     "--theta", "0.8", "--vertical", "6", "--quiet"])
        assert code == 0

    def test_rs_join_wrong_algorithm(self, corpus_file, tmp_path, capsys):
        right = tmp_path / "right.txt"
        save_records(make_corpus("wiki", 10, seed=4), right)
        assert_one_line_error(
            capsys,
            ["join", corpus_file, "--right", str(right),
             "--algorithm", "vsmart"],
            match="fsjoin algorithms only",
        )

    def test_metrics_summary_on_stderr(self, corpus_file, capsys):
        main(["join", corpus_file, "--theta", "0.9", "--vertical", "6"])
        err = capsys.readouterr().err
        assert "pairs" in err and "shuffle" in err


class TestTopK:
    def test_k_rows(self, corpus_file, capsys):
        code = main(["topk", corpus_file, "-k", "3", "--workers", "4"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3
        scores = [float(line.split("\t")[2]) for line in lines]
        assert scores == sorted(scores, reverse=True)


class TestEstimate:
    def test_estimate_rows(self, corpus_file, capsys):
        code = main(["estimate", corpus_file, "--theta", "0.8",
                     "--sample-size", "40", "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated_pairs\t" in out
        assert "sample_size\t40" in out

    def test_estimate_deterministic(self, corpus_file, capsys):
        main(["estimate", corpus_file, "--seed", "3"])
        first = capsys.readouterr().out
        main(["estimate", corpus_file, "--seed", "3"])
        assert capsys.readouterr().out == first


class TestLSHAlgorithm:
    def test_lsh_join_runs(self, corpus_file, capsys):
        code = main(["join", corpus_file, "--theta", "0.8",
                     "--algorithm", "lsh", "--quiet"])
        assert code == 0
        for line in capsys.readouterr().out.splitlines():
            rid_a, rid_b, score = line.split("\t")
            assert float(score) >= 0.8 - 1e-9

    def test_lsh_subset_of_exact(self, corpus_file, capsys):
        main(["join", corpus_file, "--theta", "0.8", "--vertical", "6",
              "--quiet"])
        exact = set(capsys.readouterr().out.splitlines())
        main(["join", corpus_file, "--theta", "0.8", "--algorithm", "lsh",
              "--quiet"])
        approx = set(capsys.readouterr().out.splitlines())
        assert approx <= exact


class TestIndexSearch:
    @pytest.fixture
    def index_file(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "corpus.idx"
        assert main(["index", corpus_file, "--output", str(path),
                     "--vertical", "6"]) == 0
        assert "indexed 80 records" in capsys.readouterr().err
        return str(path)

    def test_search_query_json(self, index_file, corpus_file, capsys):
        tokens = load_records(corpus_file)[0].tokens
        code = main(["search", index_file, "--query", " ".join(tokens),
                     "--theta", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta"] == 0.5 and doc["func"] == "jaccard"
        assert doc["hits"], "an indexed record must at least hit itself"
        assert doc["hits"][0] == {"rid": 0, "score": 1.0}

    def test_search_rid_excludes_self(self, index_file, capsys):
        code = main(["search", index_file, "--rid", "0", "--theta", "0.3",
                     "-k", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["hits"]) <= 3
        assert all(hit["rid"] != 0 for hit in doc["hits"])

    def test_search_matches_join_output(self, index_file, corpus_file, capsys):
        """CLI search of a record agrees with CLI join at the same θ."""
        main(["join", corpus_file, "--theta", "0.8", "--vertical", "6",
              "--quiet"])
        joined = capsys.readouterr().out.splitlines()
        partners = {
            int(b) if int(a) == 5 else int(a)
            for a, b, _ in (line.split("\t") for line in joined)
            if int(a) == 5 or int(b) == 5
        }
        main(["search", index_file, "--rid", "5", "--theta", "0.8"])
        doc = json.loads(capsys.readouterr().out)
        assert {hit["rid"] for hit in doc["hits"]} == partners

    def test_search_batch_file(self, index_file, corpus_file, capsys):
        code = main(["search", index_file, "--query-file", corpus_file,
                     "--theta", "0.6"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["results"]) == 80
        assert all(entry["hits"] for entry in doc["results"])

    def test_search_bad_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"garbage")
        assert_one_line_error(
            capsys, ["search", str(bad), "--query", "a b", "--theta", "0.5"]
        )

    def test_search_missing_snapshot(self, tmp_path, capsys):
        assert_one_line_error(
            capsys,
            ["search", str(tmp_path / "absent.idx"),
             "--query", "a", "--theta", "0.5"],
            match="no snapshot",
        )


class TestTrace:
    def test_join_trace_writes_jsonl_and_chrome(self, corpus_file, tmp_path,
                                                capsys):
        trace = tmp_path / "join.jsonl"
        code = main(["join", corpus_file, "--theta", "0.8", "--vertical", "6",
                     "--quiet", "--trace", str(trace)])
        assert code == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines() if line]
        assert records
        phases = {record["phase"] for record in records}
        assert {"pipeline", "driver", "job", "map-wave", "map",
                "shuffle", "reduce-wave", "reduce"} <= phases
        chrome = tmp_path / "join.chrome.json"
        assert chrome.exists()
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_join_trace_results_identical(self, corpus_file, tmp_path, capsys):
        main(["join", corpus_file, "--theta", "0.8", "--vertical", "6",
              "--quiet"])
        plain = capsys.readouterr().out
        main(["join", corpus_file, "--theta", "0.8", "--vertical", "6",
              "--quiet", "--trace", str(tmp_path / "t.jsonl")])
        assert capsys.readouterr().out == plain

    def test_join_trace_prints_breakdown(self, corpus_file, tmp_path, capsys):
        main(["join", corpus_file, "--theta", "0.8", "--vertical", "6",
              "--trace", str(tmp_path / "t.jsonl")])
        err = capsys.readouterr().err
        assert "phase breakdown" in err
        assert "map-wave" in err

    def test_search_trace_and_latency(self, corpus_file, tmp_path, capsys):
        index = tmp_path / "c.idx"
        main(["index", corpus_file, "--output", str(index), "--vertical", "6"])
        capsys.readouterr()
        trace = tmp_path / "search.jsonl"
        code = main(["search", str(index), "--query-file", corpus_file,
                     "--theta", "0.6", "--trace", str(trace)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["latency"]["count"] >= 1
        phases = {json.loads(line)["phase"]
                  for line in trace.read_text().splitlines() if line}
        assert "service" in phases

    def test_trace_subcommand_reports(self, corpus_file, tmp_path, capsys):
        trace = tmp_path / "join.jsonl"
        main(["join", corpus_file, "--theta", "0.8", "--vertical", "6",
              "--quiet", "--trace", str(trace)])
        capsys.readouterr()
        chrome = tmp_path / "replay.chrome.json"
        code = main(["trace", str(trace), "--chrome", str(chrome)])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out and "pipeline" in out
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_trace_subcommand_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert_one_line_error(
            capsys, ["trace", str(bad)], match="invalid trace file"
        )


class TestCluster:
    @pytest.fixture
    def cluster_dir(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "corpus.cluster"
        assert main(["cluster", "build", corpus_file, "--output", str(path),
                     "--shards", "4", "--replication", "2",
                     "--vertical", "8"]) == 0
        err = capsys.readouterr().err
        assert "sharded 80 records into 4 shards" in err
        return str(path)

    @pytest.fixture
    def index_file(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "corpus.idx"
        assert main(["index", corpus_file, "--output", str(path),
                     "--vertical", "8"]) == 0
        capsys.readouterr()
        return str(path)

    def test_search_matches_single_node(self, cluster_dir, index_file,
                                        capsys):
        assert main(["search", index_file, "--rid", "5",
                     "--theta", "0.6"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(["cluster", "search", cluster_dir, "--rid", "5",
                     "--theta", "0.6"]) == 0
        clustered = json.loads(capsys.readouterr().out)
        assert clustered == single

    def test_search_survives_replica_failure(self, cluster_dir, index_file,
                                             capsys):
        assert main(["search", index_file, "--rid", "5",
                     "--theta", "0.6"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(["cluster", "search", cluster_dir, "--rid", "5",
                     "--theta", "0.6", "--fail-shard", "1"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == single
        assert "injected failure" in captured.err

    def test_search_trace_has_cluster_phase(self, cluster_dir, corpus_file,
                                            tmp_path, capsys):
        trace = tmp_path / "cluster.jsonl"
        code = main(["cluster", "search", cluster_dir,
                     "--query-file", corpus_file, "--theta", "0.6",
                     "--trace", str(trace)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["latency"]["count"] >= 1
        phases = {json.loads(line)["phase"]
                  for line in trace.read_text().splitlines() if line}
        assert {"cluster", "service"} <= phases

    def test_status_document(self, cluster_dir, capsys):
        assert main(["cluster", "status", cluster_dir]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shards"] == 4
        assert doc["replication"] == 2
        assert doc["records"] == 80
        assert doc["health"] == [[True, True]] * 4

    def test_fail_shard_out_of_range(self, cluster_dir, capsys):
        assert_one_line_error(
            capsys,
            ["cluster", "search", cluster_dir, "--rid", "0",
             "--theta", "0.6", "--fail-shard", "9"],
            match="out of range",
        )

    def test_missing_cluster_dir(self, tmp_path, capsys):
        assert_one_line_error(
            capsys, ["cluster", "status", str(tmp_path / "nowhere")],
            match="no cluster manifest",
        )


class TestIngest:
    def test_streams_verifies_and_snapshots(self, corpus_file, tmp_path,
                                            capsys):
        snapshot = tmp_path / "streamed.idx"
        code = main(["ingest", corpus_file, "--base", "30",
                     "--batch-size", "10", "--memtable-limit", "16",
                     "--fanout", "2", "--vertical", "6", "--verify",
                     "--snapshot", str(snapshot)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] == 80
        assert doc["base"] == 30
        assert doc["streamed"] == 50
        assert doc["flushes"] >= 1
        assert doc["verify"]["ok"]
        assert doc["verify"]["structural_identical"]
        assert doc["verify"]["probe_mismatches"] == 0
        # The order is stored once and in no generation payload, so the
        # live payloads together weigh less than one standalone snapshot.
        assert doc["persisted"]["order_files"] == 1
        assert 0 < doc["persisted"]["order_bytes"]
        assert (0 < doc["persisted"]["segment_bytes"]
                < doc["snapshot"]["bytes"])
        # The snapshot is a plain index the serving CLI can load.
        assert snapshot.exists()
        assert main(["search", str(snapshot), "--rid", "5",
                     "--theta", "0.6"]) == 0

    def test_trace_carries_ingest_phase(self, corpus_file, tmp_path,
                                        capsys):
        trace = tmp_path / "ingest.jsonl"
        assert main(["ingest", corpus_file, "--batch-size", "20",
                     "--vertical", "6", "--trace", str(trace)]) == 0
        capsys.readouterr()
        phases = {json.loads(line)["phase"]
                  for line in trace.read_text().splitlines() if line}
        assert "ingest" in phases

    def test_bad_base_is_typed(self, corpus_file, capsys):
        assert_one_line_error(
            capsys, ["ingest", corpus_file, "--base", "999"],
            match="--base 999 out of range",
        )

    def test_chaos_ingest_scenario(self, capsys):
        code = main(["chaos", "--seed", "11", "--scenario", "ingest"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"]
        scenario = doc["scenarios"][0]
        assert scenario["scenario"] == "ingest"
        assert scenario["matched"]


class TestServeAndQuery:
    """The TCP front door: ``repro serve`` + ``repro query`` must print
    exactly what ``repro cluster search`` prints for the same probes."""

    @pytest.fixture
    def cluster_dir(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "corpus.cluster"
        assert main(["cluster", "build", corpus_file, "--output", str(path),
                     "--shards", "3", "--replication", "2",
                     "--vertical", "8"]) == 0
        capsys.readouterr()
        return str(path)

    @pytest.fixture
    def live_server(self, cluster_dir):
        import socket
        import threading
        import time as _time

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        thread = threading.Thread(
            target=main,
            args=(["serve", cluster_dir, "--port", str(port),
                   "--drain-grace", "1"],),
            daemon=True,
        )
        thread.start()
        deadline = _time.monotonic() + 10.0
        while _time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port),
                                         timeout=0.2).close()
                break
            except OSError:
                _time.sleep(0.05)
        yield f"127.0.0.1:{port}"
        main(["query", "--connect", f"127.0.0.1:{port}", "--drain"])
        thread.join(10.0)

    def test_wire_json_matches_cluster_search(self, cluster_dir,
                                              live_server, capsys):
        query = "w001 w002 w003 w004"
        assert main(["cluster", "search", cluster_dir, "--query", query,
                     "--theta", "0.4"]) == 0
        local = json.loads(capsys.readouterr().out)
        assert main(["query", "--connect", live_server, "--query", query,
                     "--theta", "0.4"]) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire == local

    def test_wire_batch_matches_cluster_search(self, cluster_dir,
                                               live_server, corpus_file,
                                               capsys):
        assert main(["cluster", "search", cluster_dir,
                     "--query-file", corpus_file, "--theta", "0.6"]) == 0
        local = json.loads(capsys.readouterr().out)
        assert main(["query", "--connect", live_server,
                     "--query-file", corpus_file, "--theta", "0.6"]) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire == local

    def test_status_over_the_wire(self, live_server, capsys):
        assert main(["query", "--connect", live_server, "--status"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["draining"] is False
        assert "gateway" in status

    def test_chaos_net_scenario(self, capsys):
        code = main(["chaos", "--seed", "7", "--scenario", "net"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"]
        scenario = doc["scenarios"][0]
        assert scenario["scenario"] == "net"
        assert scenario["matched"]
        assert scenario["detail"]["mismatches"] == 0


class TestErrors:
    """Error paths, each held to ``assert_one_line_error``'s contract."""

    def test_missing_stats_file(self, capsys):
        assert_one_line_error(capsys, ["stats", "/nonexistent/path.txt"])

    def test_missing_join_file(self, tmp_path, capsys):
        assert_one_line_error(
            capsys, ["join", str(tmp_path / "missing.txt"), "--quiet"]
        )

    @pytest.fixture
    def index_file(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "corpus.idx"
        assert main(["index", corpus_file, "--output", str(path),
                     "--vertical", "6"]) == 0
        capsys.readouterr()
        return str(path)

    def test_search_unknown_rid(self, index_file, capsys):
        assert_one_line_error(
            capsys, ["search", index_file, "--rid", "999", "--theta", "0.5"],
            match="error: unknown --rid 999",
        )

    def test_search_missing_query_file(self, index_file, tmp_path, capsys):
        assert_one_line_error(
            capsys,
            ["search", index_file, "--theta", "0.5",
             "--query-file", str(tmp_path / "absent.txt")],
            match="error: cannot read query file",
        )

    def test_search_binary_query_file(self, index_file, tmp_path, capsys):
        binary = tmp_path / "blob.bin"
        binary.write_bytes(b"\xff\xfe\x00garbage\x80")
        assert_one_line_error(
            capsys,
            ["search", index_file, "--theta", "0.5",
             "--query-file", str(binary)],
            match="not readable UTF-8",
        )
