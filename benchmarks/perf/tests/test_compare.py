"""compare.py's verdicts: bound, overlap, spread, determinism."""

import json

import compare


def _doc(value, q1, q3, seed=1, sha="a", exact=5, error_share=0.0, best=None):
    """One run whose rounds read ``q1``, ``value``, ``q3``; ``best`` is the
    best-of-rounds value the run reports (below every round, as a rule)."""
    return {"seed": seed, "workloads": {"w": {
        "inputs_sha256": sha,
        "end_to_end": {
            "latency": {"value": q1 - 1.0 if best is None else best,
                        "median": value, "q1": q1, "q3": q3,
                        "better": "lower", "bound": 0.10},
            "error_share": {"value": error_share, "median": None,
                            "q1": None, "q3": None,
                            "better": "lower", "bound": 0.0},
        },
        "per_layer": {"count": {"value": exact, "exact": True},
                      "time": {"value": value, "exact": False}},
    }}}


def test_verdicts():
    a = (100.0, 98.0, 102.0)
    assert compare.verdict(a, (104.0, 103.0, 105.0), "lower", 0.10)[1] == "ok"
    assert compare.verdict(a, (120.0, 118.0, 122.0), "lower", 0.10)[1] == "regression"
    assert compare.verdict(a, (80.0, 79.0, 81.0), "lower", 0.10)[1] == "improved"
    # Beyond the bound but the quartile ranges overlap: says nothing.
    assert compare.verdict(a, (115.0, 95.0, 130.0), "lower", 0.10)[1] == "unresolved"
    # Within the bound but noisier than the bound: not "unchanged" either.
    assert compare.verdict(a, (101.0, 90.0, 112.0), "lower", 0.10)[1] == "unresolved"
    # Higher is better: a drop is the regression.
    worse, word = compare.verdict(a, (80.0, 79.0, 81.0), "higher", 0.10)
    assert word == "regression" and round(worse, 3) == 0.2
    # error_share: any failure at all.
    none = (0.0, None, None)
    assert compare.verdict(none, (0.001, None, None), "lower", 0.0)[1] == "regression"
    assert compare.verdict(none, none, "lower", 0.0)[1] == "ok"


def _history(path, values):
    path.write_text("".join(json.dumps(_doc(v + 5, v + 4, v + 6, best=v)) + "\n"
                            for v in values))
    return str(path)


def test_sets_of_runs_compare_their_values_across_runs(tmp_path, capsys):
    a = _history(tmp_path / "a.jsonl", (99.0, 100.0, 101.0, 100.5, 99.5))
    b = _history(tmp_path / "b.jsonl", (100.0, 101.0, 102.0, 100.5, 101.5))
    slow = _history(tmp_path / "slow.jsonl", (130.0, 131.0, 129.0))
    assert compare.main([a, b]) == 0
    assert compare.main([a, slow]) == 1
    assert "regression" in capsys.readouterr().out


def test_both_sides_are_summarized_the_same_way(tmp_path, capsys):
    # One run a side: both are read from their rounds, so a run against
    # itself differs by nothing and sits inside its own quartiles.
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(_doc(100.0, 99.0, 101.0, best=90.0), indent=1))
    assert compare.main([str(doc), str(doc)]) == 0
    out = capsys.readouterr().out
    assert "rounds of its first run" in out and "unresolved" not in out
    assert compare.summarize([json.loads(doc.read_text())], "w", "latency",
                             across_runs=False) == (100.0, 99.0, 101.0)
    # A set against a single run: still the rounds of one run each, never
    # one side's best-of value against the other side's quartiles.
    many = _history(tmp_path / "many.jsonl", (90.0, 90.5, 89.5))
    assert compare.main([many, str(doc)]) == 0
    assert "rounds of its first run" in capsys.readouterr().out


def test_same_seed_must_repeat_hashes_and_counts(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_doc(100.0, 99.0, 101.0)))
    b.write_text(json.dumps(_doc(100.0, 99.0, 101.0, exact=6)))
    assert compare.main([str(a), str(b)]) == 1
    assert "not deterministic" in capsys.readouterr().out
    b.write_text(json.dumps(_doc(100.0, 99.0, 101.0, seed=2, sha="b", exact=6)))
    assert compare.main([str(a), str(b)]) == 0
