"""Closed-loop load legs over the wire, and the tally of what came back.

Callers of this system are dedup/linkage programs that call ``search``
and wait, so every leg is a closed loop: one connection for latency, two
(= nproc) for throughput, the generator never more than nproc threads.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.errors import ReproError

from spec import BATCH_FRAME


class Tally:
    """Operations attempted and failed, and every distinct answer seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.answers: Dict[Hashable, list] = {}

    def answer(self, key: Hashable, hits: list) -> None:
        """Count one answered search; a repeat must repeat the answer."""
        self.attempted += 1
        if self.answers.setdefault(key, hits) != hits:
            self.failed += 1

    def error(self, count: int = 1) -> None:
        self.attempted += count
        self.failed += count

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for key, hits in other.answers.items():
            if self.answers.setdefault(key, hits) != hits:
                self.failed += 1


def warm_up(client, records, theta: float) -> None:
    """Untimed probes that let lazy set-up finish, on indexed records the
    replays never ask for again."""
    for record in records:
        client.search(record.tokens, theta)


def gateway_counters(client) -> Dict[str, int]:
    """The gateway's counters as the wire ``status`` frame reports them."""
    return dict(client.status()["gateway"]["gateway"])


def search_leg(client, queries: Sequence[Tuple[Hashable, Sequence[str]]],
               theta: float, tally: Tally) -> List[float]:
    """Replay ``(key, tokens)`` searches on one connection.

    Returns one latency in seconds per query, ``inf`` for a failed one, so
    rounds of the same replay stay aligned request by request.
    """
    latencies = []
    for key, tokens in queries:
        started = time.perf_counter()
        try:
            hits = client.search(tokens, theta)
        except ReproError:
            tally.error()
            latencies.append(math.inf)
            continue
        latencies.append(time.perf_counter() - started)
        tally.answer(key, hits)
    return latencies


def two_connection_leg(clients, queries, theta: float, tally: Tally) -> float:
    """One replay split over two connections, both closed loops at once;
    returns its wall in s."""
    tallies = [Tally() for _ in clients]

    def worker(lane: int) -> None:
        search_leg(clients[lane], queries[lane::len(clients)], theta, tallies[lane])

    threads = [threading.Thread(target=worker, args=(lane,))
               for lane in range(len(clients))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    for lane_tally in tallies:
        tally.merge(lane_tally)
    return wall


def batch_leg(client, queries, theta: float, tally: Tally) -> List[float]:
    """``search_batch`` frames of ``BATCH_FRAME``; one wall in s per frame."""
    walls = []
    for lo in range(0, len(queries), BATCH_FRAME):
        frame = queries[lo:lo + BATCH_FRAME]
        started = time.perf_counter()
        try:
            results = client.search_batch([tokens for _key, tokens in frame], theta)
        except ReproError:
            tally.error(len(frame))
            walls.append(math.inf)
            continue
        walls.append(time.perf_counter() - started)
        for (key, _tokens), hits in zip(frame, results):
            tally.answer(key, hits)
    return walls


def mixed_leg(client, batches, picks, queries, theta: float,
              searches_per_append: int, tally: Tally):
    """Each append frame followed by its Zipf-picked searches.

    Search answers are keyed ``(records acknowledged, query index)`` so
    they can be checked against exactly the records visible at that point.
    Returns ``(append latencies, search latencies)`` in seconds.
    """
    append_latencies, search_latencies = [], []
    acknowledged = 0
    for b, batch in enumerate(batches):
        started = time.perf_counter()
        try:
            acknowledged += client.append(batch)
        except ReproError:
            tally.error()
            append_latencies.append(math.inf)
        else:
            append_latencies.append(time.perf_counter() - started)
            tally.attempted += 1
        chosen = picks[b * searches_per_append:(b + 1) * searches_per_append]
        search_latencies += search_leg(
            client, [((acknowledged, qi), queries[qi]) for qi in chosen],
            theta, tally,
        )
    return append_latencies, search_latencies
