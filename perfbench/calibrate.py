"""Host-speed calibration of the benchmark's timings.

On a shared host the speed this process gets drifts by tens of percent
within seconds: other tenants load the same cores and caches.  Measured on
a 2-core Xeon VM, the same operation's time moved by up to 50% between
runs a minute apart and by 10-20% within a second, far more than the
changes the benchmark must detect.

So the benchmark runs a fixed piece of pure-Python work, the ``chunk``
(shortest paths from every vertex of a small fixed weighted graph, the
kind of work dilaug itself does), right before and right after every timed
operation, and scales the operation's time by how long the chunk took
around it:

    reported = measured * REFERENCE_S / median(chunk times around it)

A timing then reads as seconds at the reference speed, at which one chunk
takes REFERENCE_S.  The chunk never calls dilaug, so a faster program still
reads faster by the same factor.  Any change to the chunk or to
REFERENCE_S rescales every timing: bump VERSION with it.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter

VERSION = 1
REFERENCE_S = 0.0004    # one chunk's time on the host the figures refer to
SHARE = 0.1             # chunk time after an operation, as a share of its time

_N = 20


def _graph() -> list[list[tuple[int, int]]]:
    rng = random.Random("perfbench-calibration-v1")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(_N)]
    for v in range(1, _N):
        u, w = rng.randrange(v), rng.randint(1, 9)
        adj[u].append((v, w))
        adj[v].append((u, w))
    for _ in range(2 * _N):
        u, v, w = rng.randrange(_N), rng.randrange(_N), rng.randint(1, 9)
        if u != v:
            adj[u].append((v, w))
            adj[v].append((u, w))
    return adj


_ADJ = _graph()


def _sweep() -> int:
    total = 0
    for source in range(_N):
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist.get(v, 1 << 30):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


def chunk() -> float:
    """Seconds one chunk takes now.  Garbage collection is held off, so a
    collection of the program's heap is never charged to the chunk."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _sweep()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def gap(busy_s: float = 0.0) -> list[float]:
    """Chunk times taken after ``busy_s`` seconds of timed work: at least
    one chunk, and at least SHARE * busy_s seconds of them."""
    times = [chunk()]
    while sum(times) < SHARE * busy_s:
        times.append(chunk())
    return times


def factor(before: list[float], after: list[float]) -> float:
    """Turns a time measured between the gaps ``before`` and ``after`` into
    seconds at the reference speed."""
    return REFERENCE_S / statistics.median(before + after)
