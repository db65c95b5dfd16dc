"""CLI error-contract regression: every verb fails closed, one line, exit 1.

Whatever a subcommand hits — a missing file, a corrupt snapshot, invalid
parameters, a typed :class:`~repro.errors.ReproError` from deep inside an
algorithm — the CLI's contract is uniform: exit code 1 and exactly one
``error: ...`` line on stderr.  Never a traceback, never exit 0 with bad
output on stdout.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.data import make_corpus, save_records


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    save_records(make_corpus("wiki", 40, seed=3), path)
    return str(path)


@pytest.fixture
def index_file(tmp_path, corpus_file):
    path = tmp_path / "corpus.idx"
    assert main(["index", corpus_file, "--output", str(path)]) == 0
    return str(path)


def assert_one_line_error(capsys, argv, match=""):
    """Run a CLI invocation expected to fail; pin the error contract."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1, f"expected one error line, got: {lines!r}"
    assert lines[0].startswith("error:")
    if match:
        assert match in lines[0]
    assert "Traceback" not in captured.err


class TestEveryVerbFailsClosed:
    def test_search_refuses_a_parent_v4_snapshot(self, index_file, capsys):
        """A snapshot the parent build wrote — version 4, the same columns
        with each posting run in insertion order — is refused by its
        header: one line naming both versions and the rebuild command."""
        import pickle
        from pathlib import Path

        path = Path(index_file)
        envelope = pickle.loads(path.read_bytes())
        envelope["version"] = 4
        path.write_bytes(pickle.dumps(envelope))
        assert_one_line_error(
            capsys, ["search", index_file, "--query", "a b"],
            match="file has 4, this build reads 6 — rebuild the index with "
                  "'repro index'",
        )

    def test_generate_unwritable_output(self, tmp_path, capsys):
        assert_one_line_error(
            capsys,
            ["generate", "--records", "5",
             "--output", str(tmp_path / "no-such-dir" / "x.txt")],
        )

    def test_stats_missing_input(self, tmp_path, capsys):
        assert_one_line_error(capsys, ["stats", str(tmp_path / "nope.txt")])

    def test_join_missing_input(self, tmp_path, capsys):
        assert_one_line_error(capsys, ["join", str(tmp_path / "nope.txt")])

    def test_join_invalid_theta(self, corpus_file, capsys):
        assert_one_line_error(
            capsys, ["join", corpus_file, "--theta", "1.5"], match="theta"
        )

    def test_topk_missing_input(self, tmp_path, capsys):
        assert_one_line_error(capsys, ["topk", str(tmp_path / "nope.txt")])

    def test_estimate_missing_input(self, tmp_path, capsys):
        assert_one_line_error(capsys, ["estimate", str(tmp_path / "nope.txt")])

    def test_estimate_zero_sample_size(self, corpus_file, capsys):
        assert_one_line_error(
            capsys, ["estimate", corpus_file, "--sample-size", "0"],
            match="sample_size",
        )

    @pytest.mark.parametrize("batch_size", ["0", "-4"])
    def test_ingest_batch_size_below_one(self, corpus_file, capsys,
                                         batch_size):
        assert_one_line_error(
            capsys,
            ["ingest", corpus_file, "--base", "0",
             "--batch-size", batch_size],
            match="--batch-size must be >= 1",
        )

    def test_index_missing_input(self, tmp_path, capsys):
        assert_one_line_error(
            capsys,
            ["index", str(tmp_path / "nope.txt"), "--output",
             str(tmp_path / "out.idx")],
        )

    def test_search_missing_snapshot(self, tmp_path, capsys):
        assert_one_line_error(
            capsys,
            ["search", str(tmp_path / "nope.idx"), "--query", "a b"],
        )

    def test_search_corrupt_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"not a snapshot")
        assert_one_line_error(capsys, ["search", str(bad), "--query", "a b"])

    def test_search_unknown_rid(self, index_file, capsys):
        assert_one_line_error(
            capsys,
            ["search", index_file, "--rid", "999999"],
            match="unknown --rid",
        )

    def test_search_missing_query_file(self, index_file, tmp_path, capsys):
        assert_one_line_error(
            capsys,
            ["search", index_file, "--query-file", str(tmp_path / "nope.txt")],
            match="query file",
        )

    def test_cluster_build_missing_input(self, tmp_path, capsys):
        assert_one_line_error(
            capsys,
            ["cluster", "build", str(tmp_path / "nope.txt"),
             "--output", str(tmp_path / "c")],
        )

    def test_cluster_search_missing_dir(self, tmp_path, capsys):
        assert_one_line_error(
            capsys,
            ["cluster", "search", str(tmp_path / "nope"), "--query", "a b"],
        )

    def test_cluster_search_fail_shard_out_of_range(self, tmp_path,
                                                    corpus_file, capsys):
        cluster_dir = tmp_path / "cluster"
        assert main(["cluster", "build", corpus_file, "--output",
                     str(cluster_dir), "--shards", "2"]) == 0
        capsys.readouterr()
        assert_one_line_error(
            capsys,
            ["cluster", "search", str(cluster_dir), "--query", "a b",
             "--fail-shard", "9"],
            match="out of range",
        )

    def test_cluster_status_missing_dir(self, tmp_path, capsys):
        assert_one_line_error(
            capsys, ["cluster", "status", str(tmp_path / "nope")]
        )

    @pytest.mark.parametrize("manifest, match", [
        ('{"format": "repro-cluster", "version": 1}', "repro cluster build"),
        ('{"format": "repro-cluster", "version": 3}',
         "file has 3, this build reads 4 — rebuild the cluster with "
         "'repro cluster build'"),
        ('{"format": "repro-cluster", "version": 4}',
         "malformed cluster manifest"),
        ('["repro-cluster", 2]', "not a repro-cluster manifest"),
    ])
    def test_cluster_status_malformed_manifest(self, tmp_path, corpus_file,
                                               capsys, manifest, match):
        """The manifest is outside input: a version-1 or version-3
        directory, a missing plan and a JSON list are one ``error:`` line,
        never a traceback."""
        cluster_dir = tmp_path / "c"
        assert main(["cluster", "build", corpus_file,
                     "--output", str(cluster_dir)]) == 0
        capsys.readouterr()
        (cluster_dir / "manifest.json").write_text(manifest)
        assert_one_line_error(
            capsys, ["cluster", "status", str(cluster_dir)], match=match
        )

    @pytest.mark.parametrize("verb", [
        ["cluster", "status"],
        ["cluster", "search", "--query", "a b"],
        ["serve", "--port", "0"],
    ])
    def test_every_cluster_dir_verb_refuses_a_swapped_snapshot(
            self, tmp_path, corpus_file, capsys, verb):
        cluster_dir = tmp_path / "c"
        assert main(["cluster", "build", corpus_file,
                     "--output", str(cluster_dir)]) == 0
        # The same corpus cut into other fragments: a valid snapshot, but
        # not the one this manifest was written beside.
        assert main(["index", corpus_file, "--vertical", "4", "--output",
                     str(cluster_dir / "index.idx")]) == 0
        capsys.readouterr()
        assert_one_line_error(
            capsys, verb + [str(cluster_dir)], match="different saves",
        )

    def test_serve_bad_port(self, tmp_path, corpus_file, capsys):
        cluster_dir = tmp_path / "c"
        assert main(["cluster", "build", corpus_file,
                     "--output", str(cluster_dir)]) == 0
        capsys.readouterr()
        assert_one_line_error(
            capsys,
            ["serve", str(cluster_dir), "--port", "99999"],
            match="port",
        )

    @pytest.mark.parametrize("interval", ["0", "-1"])
    def test_serve_heal_interval_not_positive(self, tmp_path, corpus_file,
                                              capsys, interval):
        cluster_dir = tmp_path / "c"
        assert main(["cluster", "build", corpus_file,
                     "--output", str(cluster_dir)]) == 0
        capsys.readouterr()
        assert_one_line_error(
            capsys,
            ["serve", str(cluster_dir), "--port", "0", "--heal",
             "--heal-interval", interval],
            match="--heal-interval must be > 0",
        )

    def test_serve_missing_cluster_dir(self, tmp_path, capsys):
        assert_one_line_error(
            capsys, ["serve", str(tmp_path / "nope"), "--port", "0"]
        )

    def test_query_malformed_connect(self, capsys):
        assert_one_line_error(
            capsys,
            ["query", "--connect", "nohost", "--query", "a b"],
            match="HOST:PORT",
        )

    def test_query_non_numeric_port(self, capsys):
        assert_one_line_error(
            capsys,
            ["query", "--connect", "localhost:http", "--query", "a b"],
            match="integer",
        )

    def test_query_unreachable_host(self, capsys):
        # Port 1 on localhost: nothing listens, connect is refused.
        assert_one_line_error(
            capsys,
            ["query", "--connect", "127.0.0.1:1", "--query", "a b",
             "--timeout", "1"],
            match="cannot connect",
        )

    def test_chaos_invalid_theta(self, capsys):
        assert_one_line_error(
            capsys,
            ["chaos", "--scenario", "join", "--theta", "1.5"],
            match="theta",
        )

    def test_trace_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert_one_line_error(capsys, ["trace", str(bad)])

    def test_trace_missing_file(self, tmp_path, capsys):
        assert_one_line_error(capsys, ["trace", str(tmp_path / "nope.jsonl")])


@pytest.fixture
def cluster_dir(tmp_path, corpus_file, capsys):
    path = tmp_path / "c"
    assert main(["cluster", "build", corpus_file, "--shards", "2",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    return str(path)


class TestBadValuesBelowTheParser:
    """Values of the right type that a library layer range-checks: the
    CLI passes them through and prints the layer's typed error."""

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_search_k_below_one(self, index_file, capsys, k):
        assert_one_line_error(
            capsys, ["search", index_file, "--query", "a b", "-k", k],
            match=f"k must be >= 1, got {k}",
        )

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_cluster_search_k_below_one(self, cluster_dir, capsys, k):
        assert_one_line_error(
            capsys,
            ["cluster", "search", cluster_dir, "--query", "a b", "-k", k],
            match=f"k must be >= 1, got {k}",
        )

    def test_ingest_vertical_zero_with_no_base(self, corpus_file, capsys):
        assert_one_line_error(
            capsys, ["ingest", corpus_file, "--vertical", "0"],
            match="n_vertical must be >= 1, got 0",
        )

    @pytest.mark.parametrize("flag, field", [
        ("--frame-timeout", "frame_timeout"),
        ("--drain-grace", "drain_grace"),
    ])
    def test_serve_nan_duration(self, cluster_dir, capsys, monkeypatch,
                                flag, field):
        import asyncio

        def never_serve(coro):
            coro.close()
            raise AssertionError(f"serve {flag} nan started the server")

        monkeypatch.setattr(asyncio, "run", never_serve)
        assert_one_line_error(
            capsys, ["serve", cluster_dir, "--port", "0", flag, "nan"],
            match=f"{field} must be",
        )


class TestBadFlags:
    """Usage errors take the same path as every other failure: exit 1 and
    one ``error: --flag ...`` line, never argparse's exit 2 and usage
    block.  Nothing here reads a file: parsing fails first."""

    USAGE_ERRORS = [
        (["query", "--connect", "h:1", "--query", "a", "--timeout", "-1"],
         "--timeout must be > 0"),
        (["query", "--connect", "h:1", "--query", "a", "--timeout", "0"],
         "--timeout must be > 0"),
        (["query", "--connect", "h:1", "--query", "a", "--timeout", "nan"],
         "--timeout must be > 0"),
        (["query", "--connect", "h:1", "--query", "a", "--timeout", "inf"],
         "--timeout must be > 0"),
        (["search", "x.idx", "--rid", "nan"], "--rid invalid int value"),
        (["serve", "c", "--heal", "--heal-interval", "nan"],
         "--heal-interval must be > 0"),
        (["ingest", "x.txt", "--batch-size", "0"], "--batch-size must be >= 1"),
        (["join", "x.txt", "--func", "hamming"], "--func invalid choice"),
        (["search", "x.idx"], "one of the arguments --query"),
        (["index", "x.txt"], "the following arguments are required: --output"),
        (["cluster"], "required: cluster_command"),
        (["nope"], "invalid choice: 'nope'"),
        (["stats", "x.txt", "--bogus"], "unrecognized arguments: --bogus"),
    ]

    @pytest.mark.parametrize("argv, match", USAGE_ERRORS,
                             ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
    def test_usage_error_is_one_line(self, capsys, argv, match):
        assert_one_line_error(capsys, argv, match=match)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "-h"])
        assert exit_info.value.code == 0
        assert "--query-file" in capsys.readouterr().out

    def test_every_typed_flag_of_every_verb(self, capsys, monkeypatch):
        """Walk the parser: every option of every verb and sub-verb, fed
        values its type refuses, is one ``error: <flag>`` line."""
        import argparse
        import functools

        from repro import cli
        from repro.cli import (
            _build_parser,
            host_port,
            positive_float,
            positive_int,
        )

        # A parser is reusable; building one per sample would be most of
        # this test's time.
        monkeypatch.setattr(cli, "_build_parser",
                            functools.lru_cache()(_build_parser))

        samples = {
            int: ("x", "1.5", "nan"),
            float: ("x",),
            positive_int: ("0", "-1", "x"),
            positive_float: ("0", "-1", "nan", "inf"),
            host_port: ("nohost", "h:x", "h:0", "h:70000"),
        }

        def verbs(parser, path):
            yield path, parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, child in action.choices.items():
                        yield from verbs(child, path + [name])

        checked = 0
        for path, parser in verbs(_build_parser(), []):
            for action in parser._actions:
                if not action.option_strings or action.type is None:
                    continue
                assert action.type in samples, (
                    f"{' '.join(path)} {action.option_strings[0]}: no "
                    f"invalid samples for type {action.type!r}"
                )
                flag = action.option_strings[0]
                for sample in samples[action.type]:
                    code = main(path + [flag, sample])
                    err = capsys.readouterr().err
                    lines = [line for line in err.splitlines() if line]
                    assert code == 1, (path, flag, sample)
                    assert len(lines) == 1, (path, flag, sample, lines)
                    assert lines[0].startswith(f"error: {flag} "), lines
                    assert "Traceback" not in err
                    checked += 1
        assert checked > 100
