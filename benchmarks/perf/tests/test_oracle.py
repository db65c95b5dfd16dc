"""The brute-force scan against a plain-Python Jaccard loop."""

from repro.data import make_corpus
from repro.service import SearchHit

from oracle import EPS, JaccardOracle


def _plain(records, tokens, theta):
    query = set(tokens)
    hits = []
    for record in records:
        common = len(query & set(record.tokens))
        score = common / (len(query) + len(record.tokens) - common)
        if common and score + EPS >= theta:
            hits.append(SearchHit(record.rid, score))
    return sorted(hits, key=lambda hit: (-hit.score, hit.rid))


def test_scan_matches_plain_loop_order_and_scores():
    records = list(make_corpus("wiki", 150, seed=5))
    oracle = JaccardOracle(records)
    for record in records[:40]:
        for theta in (0.3, 0.6, 0.8):
            assert oracle.search(record.tokens, theta) == _plain(
                records, record.tokens, theta)


def test_visible_prefix_and_unknown_tokens():
    records = list(make_corpus("wiki", 60, seed=6))
    oracle = JaccardOracle(records)
    probe = records[50].tokens
    assert records[50].rid in {h.rid for h in oracle.search(probe, 0.9)}
    assert oracle.search(probe, 0.9, visible=50) == _plain(records[:50], probe, 0.9)
    assert oracle.search(("never-seen",), 0.1) == []
