"""A host-speed reference sampled while the workload runs.

The builder's box slows down and speeds up by 30-50 % over minutes
(noisy neighbours: no steal time shows, CPU time inflates with wall
time), which no amount of repetition inside a 20-second run averages
away.  What does cancel it is a paired measurement: an interval timer
interrupts the workload every :data:`PERIOD` seconds and runs a fixed
chunk of pure-Python work — pointer chasing over a few MB, dict
lookups, heap pushes and pops; no ``repro`` code, no allocation of
GC-tracked objects — and times it.  The median chunk time during a
rep, over :data:`NOMINAL_CHUNK_S`, is how slow the host was during
that rep, and dividing the rep's times by it gives *calibrated*
seconds: what the rep would have taken on a host where the chunk
takes exactly the nominal time.  README.md has the measurements that
justify this (raw spread 18-30 %, calibrated 4-7 %).

The time spent inside the chunks is kept in :attr:`Reference.spent`,
and the benchmark's clock subtracts it, so the reference never counts
as workload time.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import List, Optional

#: Seconds between reference chunks (about 5 % of the run is reference).
PERIOD = 0.025

#: What one chunk takes on the builder's box when it is quiet; only
#: fixes the scale of calibrated seconds.
NOMINAL_CHUNK_S = 0.0013

_NODES = 32_768
_STEPS = 1000


class _Node:
    __slots__ = ("key", "next", "payload")

    def __init__(self, key: int) -> None:
        self.key = key
        self.next = self
        self.payload = [key, key + 1]


class Reference:
    """Interval-timer sampler of the fixed chunk (main thread only)."""

    def __init__(self) -> None:
        rng = random.Random(1)
        nodes = [_Node(index) for index in range(_NODES)]
        order = list(range(_NODES))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self._table = dict(enumerate(nodes))
        self._cursor = nodes[0]
        self._heap: List[int] = []
        self._busy = False
        self._previous = None
        #: Seconds spent inside chunks so far.
        self.spent = 0.0
        #: Every chunk's duration, in order.
        self.samples: List[float] = []

    def clock(self) -> float:
        """``perf_counter`` with the time spent in chunks taken out."""
        return time.perf_counter() - self.spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, since: int, until: Optional[int] = None) -> float:
        """Host slowdown over ``samples[since:until]``: median chunk
        time over the nominal one (1.0 when no chunk ran)."""
        samples = self.samples[since:until]
        if not samples:
            return 1.0
        return statistics.median(samples) / NOMINAL_CHUNK_S

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a chunk outlasted the period: skip, don't nest
            return
        self._busy = True
        started = time.perf_counter()
        self._chunk()
        took = time.perf_counter() - started
        self.spent += took
        self.samples.append(took)
        self._busy = False

    def _chunk(self) -> int:
        node, table, heap = self._cursor, self._table, self._heap
        push, pop = heapq.heappush, heapq.heappop
        del heap[:]
        total = 0
        for step in range(_STEPS):
            node = node.next
            total += node.payload[0]
            push(heap, table[(node.key * 7919) % _NODES].key)
            if step & 3 == 3:
                total += pop(heap)
        self._cursor = node
        return total
