"""Outside-in observation of a rep's timed region.

Three of the four workloads call harness functions that build their
networks internally and return only results, so the benchmark cannot
ask those networks for their event count or telemetry registry.
:class:`Observer` is the one place the benchmark goes beyond calling
public functions: for the length of the timed region it wraps the
public ``Network`` constructor to learn which networks exist, and
reads their public ``scheduler.events_processed`` (always) and
``telemetry.registry`` snapshot (traced run only).

Only the newest network is held: the harnesses build, run and finish
one network at a time, so a network is folded into the totals when
the next one is constructed or at :meth:`Observer.flush`, which
workloads call at slice ends.  Holding all of a slice's networks
would keep hundreds alive in an exploration and change the GC cost
being measured.

The same object carries the traced run's instruments — ``cProfile``
round the region, and ``gc.callbacks`` timing collections — so a
workload needs one hook, ``with observer.region(...)``.  The profiler
is paused while the observer itself reads a registry.
"""

from __future__ import annotations

import cProfile
import gc
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, List, Optional

from benchmarks.e2e.reference import Reference
from repro.topology.builder import Network


#: Fewest reference samples a window needs for a slowdown of its own.
MIN_SAMPLES = 8


class Observer:
    """Counts, and optionally profiles, one rep's timed region."""

    def __init__(
        self,
        profile: bool = False,
        registry: bool = False,
        gc_watch: bool = False,
        reference: Optional[Reference] = None,
    ) -> None:
        self._reference = reference
        #: The clock workloads time with: reference chunks do not count.
        self.clock = reference.clock if reference else time.perf_counter
        #: Host slowdown from this observer's creation (the start of a
        #: rep) to the region, and over the region (``reference`` only).
        self._first_sample = len(reference.samples) if reference else 0
        self._region_sample = self._first_sample
        self.setup_slowdown = 1.0
        self.slowdown = 1.0
        self.profiler = cProfile.Profile() if profile else None
        self._registry = registry
        self._gc_watch = gc_watch
        self._profiling = False
        self._current: Optional[Network] = None
        self._events_before = 0
        self._families_before: Counter = Counter()
        self._gc_started = 0.0
        #: Networks seen, and their summed ``events_processed``.
        self.networks = 0
        self.events = 0
        #: Registry instruments summed over networks, and registry
        #: values summed by :func:`by_family` (``registry=True`` only).
        self.instruments = 0
        self.families: Counter = Counter()
        #: Collections per generation and seconds inside the collector
        #: during the region (``gc_watch=True`` only).
        self.gc_collections: List[int] = [0, 0, 0]
        self.gc_pause_s = 0.0
        #: Wall and CPU seconds of the region.
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def region(self, network: Optional[Network] = None) -> Iterator[None]:
        """The timed region.  ``network`` is one the workload built
        itself during set-up; only what it does from here on counts."""
        original = Network.__init__

        def observed_init(built, *args, **kwargs) -> None:
            original(built, *args, **kwargs)
            self._watch(built)

        if network is not None:
            self._watch(network)
        Network.__init__ = observed_init
        if self._gc_watch:
            gc.callbacks.append(self._on_gc)
        if self._reference is not None:
            self._region_sample = len(self._reference.samples)
        wall, cpu = self.clock(), time.process_time()
        if self.profiler is not None:
            self.profiler.enable()
            self._profiling = True
        try:
            yield
        finally:
            if self.profiler is not None:
                self._profiling = False
                self.profiler.disable()
            self.wall_s += self.clock() - wall
            self.cpu_s += time.process_time() - cpu
            if self._reference is not None:
                reference, first = self._reference, self._first_sample
                self.slowdown = reference.slowdown(self._region_sample)
                # A set-up too short to be sampled (verify_small's is a
                # few ms) takes the whole rep's slowdown instead.
                sampled = self._region_sample - first >= MIN_SAMPLES
                self.setup_slowdown = reference.slowdown(
                    first, self._region_sample if sampled else None
                )
            if self._gc_watch:
                gc.callbacks.remove(self._on_gc)
            Network.__init__ = original
            self.flush()

    def flush(self) -> None:
        """Fold the newest network into the totals and let go of it."""
        network, self._current = self._current, None
        if network is None:
            return
        with self._profiler_paused():
            self.networks += 1
            self.events += network.scheduler.events_processed - self._events_before
            if self._registry:
                families = Counter(network.telemetry.registry.snapshot())
                self.instruments += len(families)
                families.subtract(self._families_before)
                self.families.update(by_family(families))

    def _watch(self, network: Network) -> None:
        self.flush()
        with self._profiler_paused():
            self._current = network
            self._events_before = network.scheduler.events_processed
            if self._registry:
                self._families_before = Counter(
                    network.telemetry.registry.snapshot()
                )

    @contextmanager
    def _profiler_paused(self) -> Iterator[None]:
        if not self._profiling:
            yield
            return
        self.profiler.disable()
        try:
            yield
        finally:
            self.profiler.enable()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
        else:
            self.gc_pause_s += self.clock() - self._gc_started
            self.gc_collections[info["generation"]] += 1


def by_family(values: Counter) -> Counter:
    """Registry values summed with the entity field starred:
    ``cbt.router.R4.tx.hello`` -> ``cbt.router.*.tx.hello``."""
    families: Counter = Counter()
    for name, value in values.items():
        parts = name.split(".")
        if len(parts) > 3 and parts[1] in ("router", "host", "link"):
            parts[2] = "*"
        families[".".join(parts)] += value
    return families
