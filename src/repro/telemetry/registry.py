"""Zero-dependency metrics registry (the observability layer's core).

Three instrument kinds, modelled on the conventional MIB/metrics
split real router implementations expose:

* :class:`Counter` — monotonically increasing event count (messages
  sent, FIB adds, drops by reason).
* :class:`Gauge` — point-in-time value: set explicitly, read lazily
  through a callable (live FIB size), or bound to ``(object,
  attribute)`` and read with ``getattr`` (natively counted link and
  scheduler statistics).  Lazy gauges cost nothing on the hot path;
  the attribute-bound form also costs no closure per gauge, which
  matters when there are six per link.
* :class:`Histogram` — fixed bucket boundaries chosen at creation
  (join latencies).  Fixed boundaries keep snapshots mergeable:
  bucket-wise addition is exact, unlike quantile sketches.

Names are hierarchical dotted paths (``cbt.router.R4.tx.join_request``)
so snapshots group naturally and :meth:`MetricsRegistry.total` can
aggregate with shell-style wildcards.  Pattern queries are indexed by
shape (:class:`_NameIndex`): a pure prefix bisects the sorted names, a
pattern whose last dotted segment is literal — every pattern the
conservation laws use — matches only the names sharing that segment,
and only the remaining shapes scan the whole registry.  A scan is the
pattern's compiled expression filtered over the names in one C loop,
the ``fnmatchcase`` test without a Python call per name.

Determinism: nothing here reads wall-clock time or has any other
hidden input — every value is a pure function of the simulation, so a
snapshot of a deterministic run is byte-for-byte reproducible.

There is no disabled mode: the protocol's own statistics are registry
counters, so every instrument handed out counts (docs/PERFORMANCE.md,
"Decision record: telemetry has one mode").
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fnmatch import translate
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

Number = Union[int, float]


def _plain_prefix(pattern: str) -> Optional[str]:
    """The literal prefix of ``pattern`` if it is a pure prefix query
    (a single trailing ``*`` and no other wildcard), else ``None``.

    ``cbt.router.R4.tx.*`` qualifies; ``cbt.router.*.tx.join`` does
    not.
    """
    if pattern.endswith("*"):
        head = pattern[:-1]
        if not any(ch in head for ch in "*?["):
            return head
    return None


def _literal_head(pattern: str) -> str:
    """``pattern`` up to its first wildcard: every name it matches
    starts with this (``cbt.router.*.tx.hello`` gives ``cbt.router.``)."""
    for index, ch in enumerate(pattern):
        if ch in "*?[":
            return pattern[:index]
    return pattern


def _literal_tail(pattern: str) -> Optional[str]:
    """The last dotted segment of ``pattern`` if it is literal, else
    ``None``.  ``cbt.router.*.tx.join_request`` gives ``join_request``:
    whatever the wildcards before it match, a matching name must end in
    ``.join_request``, so only names with that last segment need an
    ``fnmatchcase``.  A ``]`` disqualifies the tail too — the last dot
    may then sit inside a ``[...]`` set.
    """
    tail = pattern.rpartition(".")[2]
    if any(ch in tail for ch in "*?[]"):
        return None
    return tail


def _matcher(pattern: str) -> Callable[[str], Any]:
    """``fnmatchcase(name, pattern)`` as one compiled match, so a
    filter over names tests each in C."""
    return re.compile(translate(pattern)).match


class _NameIndex:
    """Query indexes over one ``name -> instrument`` dict.

    Two lazily maintained views, so the three query shapes cost:

    * pure prefix (``cbt.router.R4.*``) — bisect into the sorted names,
      O(log n + matches);
    * literal last segment (``cbt.router.*.tx.join_request``) —
      ``fnmatchcase`` over the names sharing that last segment only (a
      dict of lists, one reference per name);
    * anything else — ``fnmatchcase`` over every name.

    Instruments are never deleted and dicts keep insertion order, so a
    length check detects staleness and the names added since the last
    query are exactly the dict's tail.  For the same reason a
    literal-tail pattern keeps its matches: asked again, it tests only
    the names its tail list gained since.
    """

    __slots__ = ("_source", "_sorted", "_tails", "_tailed", "_matched")

    def __init__(self, source: Mapping[str, Any]) -> None:
        self._source = source
        self._sorted: List[str] = []
        self._tails: Dict[str, List[str]] = {}
        self._tailed = 0
        #: literal-tail pattern -> (names of its tail list tested, matches)
        self._matched: Dict[str, Tuple[int, List[str]]] = {}

    def select(self, pattern: str) -> List[str]:
        """Names matching the shell-style ``pattern``: sorted for a
        pure prefix pattern, in creation order otherwise."""
        source = self._source
        prefix = _plain_prefix(pattern)
        if prefix is not None:
            if len(self._sorted) != len(source):
                self._sorted = sorted(source)
            keys = self._sorted
            if not prefix:
                return keys[:]
            # The names starting with ``prefix`` are exactly those from
            # ``prefix`` up to the prefix with its last character bumped.
            bumped = prefix[:-1] + chr(ord(prefix[-1]) + 1)
            return keys[bisect_left(keys, prefix) : bisect_left(keys, bumped)]
        tail = _literal_tail(pattern)
        if tail is None:
            return list(filter(_matcher(pattern), source))
        if self._tailed != len(source):
            tails = self._tails
            for name in islice(source, self._tailed, None):
                tails.setdefault(name.rpartition(".")[2], []).append(name)
            self._tailed = len(source)
        candidates = self._tails.get(tail, ())
        tested, matches = self._matched.get(pattern, (0, []))
        if tested != len(candidates):
            fresh = filter(_matcher(pattern), islice(candidates, tested, None))
            matches = matches + list(fresh)
            self._matched[pattern] = (len(candidates), matches)
        return matches


#: Default histogram bucket upper bounds, in simulation seconds.
#: Chosen for control-plane latencies: LAN joins land in the first few
#: buckets, multi-hop WAN joins and retry-driven rejoins in the tail.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Point-in-time value: explicit via :meth:`set`, lazy via a
    callback, or bound to ``(object, attribute)`` and read with
    ``getattr`` — the form for exposing a natively counted statistic
    (one reference, no closure per gauge)."""

    __slots__ = ("name", "_value", "callback", "_obj", "_attr")

    def __init__(
        self,
        name: str,
        callback: Optional[Callable[[], Number]] = None,
        obj: Any = None,
        attr: Optional[str] = None,
    ) -> None:
        self.name = name
        self._value: Number = 0
        self.callback = callback
        self._obj = obj
        self._attr = attr

    def set(self, value: Number) -> None:
        self._value = value

    def bind(self, obj: Any, attr: str) -> None:
        self._obj = obj
        self._attr = attr

    def read(self) -> Number:
        if self._attr is not None:
            return getattr(self._obj, self._attr)
        if self.callback is not None:
            return self.callback()
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.read()})"


class Histogram:
    """Cumulative-style histogram over fixed bucket boundaries.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` exclusive
    of earlier buckets (i.e. per-bucket, not cumulative, in memory);
    the overflow bucket counts observations above the last bound.
    Snapshots expose per-bucket counts plus ``count`` and ``sum``, so
    ``sum(bucket_counts) == count`` is a checkable conservation law.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if bounds is not DEFAULT_BUCKETS and (
            not bounds or list(bounds) != sorted(bounds)
        ):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum: float = 0.0

    def observe(self, value: Number) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.sum += value

    def __repr__(self) -> str:
        return f"Histogram({self.name} n={self.count} sum={self.sum:g})"


class MetricsRegistry:
    """Instrument factory + snapshot surface.

    Instruments are created on first request and shared thereafter
    (same name → same object), so callers can pre-resolve them at
    construction time and pay only an attribute access + ``inc()`` on
    hot paths.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._counter_names = _NameIndex(self._counters)
        self._gauge_names = _NameIndex(self._gauges)
        self._histogram_names = _NameIndex(self._histograms)
        #: prefix -> (object, its kind) of each family :meth:`gauge_attrs`
        #: noted, and prefix -> (object, metrics) of those no read has
        #: built yet.
        self._families: Dict[str, Tuple[Any, Tuple[Tuple[str, ...], Callable]]] = {}
        self._family_names = _NameIndex(self._families)
        self._unbuilt: Dict[str, Tuple[Any, Sequence[Tuple[str, str]]]] = {}
        #: Every metric some family has: a pattern whose literal last
        #: segment is none of them can match no family's gauge.
        self._family_metrics: Set[str] = set()
        #: Each distinct ``metrics`` sequence :meth:`gauge_attrs` saw ->
        #: its kind: the metric names and one ``attrgetter`` of the
        #: attributes, which :meth:`families` reads every family with.
        self._family_kinds: Dict[Sequence[Tuple[str, str]], Tuple[Tuple[str, ...], Callable]] = {}

    # -- instrument factories -------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def gauge(
        self, name: str, callback: Optional[Callable[[], Number]] = None
    ) -> Gauge:
        gauge = self._find_gauge(name)
        if gauge is None:
            gauge = Gauge(name, callback)
            self._gauges[name] = gauge
        elif callback is not None:
            gauge.callback = callback
        return gauge

    def gauge_attr(self, name: str, obj: Any, attr: str) -> Gauge:
        """Gauge ``name`` reading ``getattr(obj, attr)`` at query time."""
        gauge = self._find_gauge(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, None, obj, attr)
        else:
            gauge.bind(obj, attr)
        return gauge

    def gauge_attrs(
        self, prefix: str, obj: Any, metrics: Sequence[Tuple[str, str]]
    ) -> None:
        """One :meth:`gauge_attr` ``prefix + metric`` (``prefix`` ends in
        a dot, ``metric`` holds none) per ``(metric, attr)`` pair,
        deferred: until a gauge of the family is read or looked up, or
        a pattern one of them could match is queried (a snapshot
        matches all).  A link has six and most runs read none; built
        eagerly they were the dearest part of wiring it, and
        :meth:`families` reads them without building."""
        self._unbuilt[prefix] = (obj, metrics)
        kind = self._family_kinds.get(metrics)
        if kind is None:  # every link has the same six: one reader for all
            names = tuple(metric for metric, _ in metrics)
            kind = self._family_kinds[metrics] = (
                names,
                attrgetter(*(attr for _, attr in metrics)),
            )
            self._family_metrics.update(names)
        self._families[prefix] = (obj, kind)

    def _build(self, prefix: str) -> None:
        obj, metrics = self._unbuilt.pop(prefix)
        for metric, attr in metrics:
            self.gauge_attr(prefix + metric, obj, attr)

    def _find_gauge(self, name: str) -> Optional[Gauge]:
        """Gauge ``name``, its noted family built first."""
        if self._unbuilt and name[: name.rfind(".") + 1] in self._unbuilt:
            self._build(name[: name.rfind(".") + 1])
        return self._gauges.get(name)

    def _built_gauges(self, pattern: str = "*") -> Dict[str, Gauge]:
        """``_gauges`` with every noted family a name matching
        ``pattern`` could belong to built (all of them for a snapshot):
        the families under the pattern's literal head, found in the
        sorted family index, and the one the head ends inside (a
        metric holds no dot, so no other prefix of the head can
        reach) — none when the pattern's literal last segment is no
        family's metric."""
        unbuilt = self._unbuilt
        tail = _literal_tail(pattern)
        if unbuilt and (tail is None or tail in self._family_metrics):
            head = _literal_head(pattern)
            reach = [p for p in self._family_names.select(head + "*") if p in unbuilt]
            inside = head[: head.rfind(".") + 1]
            if inside != head and inside in unbuilt:
                reach.append(inside)
            for prefix in reach:
                self._build(prefix)
        return self._gauges

    def families(self, head: str) -> Dict[str, Dict[str, Number]]:
        """``prefix -> {metric: value}`` of every :meth:`gauge_attrs`
        family whose prefix starts with ``head``, sorted by prefix,
        each value read from its object: nothing is built."""
        families = self._families
        out = {}
        for prefix in self._family_names.select(head + "*"):
            obj, (names, values) = families[prefix]
            if len(names) == 1:  # a one-name ``attrgetter`` returns no tuple
                out[prefix] = {names[0]: values(obj)}
            else:
                out[prefix] = dict(zip(names, values(obj)))
        return out

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name, bounds)
            self._histograms[name] = histogram
        return histogram

    # -- queries ---------------------------------------------------------

    def counters(self) -> Dict[str, Number]:
        """Live counter values by name (insertion order preserved)."""
        return {name: c.value for name, c in self._counters.items()}

    def value(self, name: str) -> Number:
        """Current value of counter or gauge ``name`` (0 if never
        created).  Gauges participate so hot-path components may expose
        natively-counted statistics through callback gauges instead of
        paying per-event counter increments."""
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
        gauge = self._gauges.get(name)
        if gauge is None and self._unbuilt:
            gauge = self._find_gauge(name)
        return gauge.read() if gauge is not None else 0

    def total(self, pattern: str) -> Number:
        """Sum of counter and gauge values whose names match the
        shell-style ``pattern`` (``fnmatch``; ``*`` does cross ``.``
        boundaries).  Only a pattern whose last dotted segment holds a
        wildcard (other than a pure prefix ``a.b.*``) scans every name
        — see :class:`_NameIndex`."""
        counters = self._counters
        gauges = self._built_gauges(pattern)
        return sum(
            counters[name].value for name in self._counter_names.select(pattern)
        ) + sum(gauges[name].read() for name in self._gauge_names.select(pattern))

    def matching(self, pattern: str) -> Dict[str, Number]:
        """Counter and gauge values whose names match ``pattern``,
        sorted by name (the counter wins a shared name)."""
        counters = self._counters
        gauges = self._built_gauges(pattern)
        out: Dict[str, Number] = {
            name: gauges[name].read() for name in self._gauge_names.select(pattern)
        }
        for name in self._counter_names.select(pattern):
            out[name] = counters[name].value
        return dict(sorted(out.items()))

    def histograms_matching(self, pattern: str) -> List[Histogram]:
        """Histograms whose names match ``pattern``, sorted by name."""
        histograms = self._histograms
        return [
            histograms[name]
            for name in sorted(self._histogram_names.select(pattern))
        ]

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> Dict[str, Number]:
        """Flat, sorted ``name -> value`` map of every instrument.

        Histograms expand to ``<name>.count``, ``<name>.sum`` and one
        ``<name>.le_<bound>`` entry per bucket (``le_inf`` for the
        overflow bucket).  Callback gauges are evaluated here.
        """
        out: Dict[str, Number] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._built_gauges().items():
            out[name] = gauge.read()
        for name, histogram in self._histograms.items():
            out[f"{name}.count"] = histogram.count
            out[f"{name}.sum"] = histogram.sum
            for bound, bucket in zip(histogram.bounds, histogram.bucket_counts):
                out[f"{name}.le_{bound:g}"] = bucket
            out[f"{name}.le_inf"] = histogram.bucket_counts[-1]
        return dict(sorted(out.items()))

    @staticmethod
    def diff(new: Dict[str, Number], old: Dict[str, Number]) -> Dict[str, Number]:
        """Per-key ``new - old`` (missing keys read as 0), sorted,
        zero-difference keys omitted."""
        keys = set(new) | set(old)
        out = {k: new.get(k, 0) - old.get(k, 0) for k in sorted(keys)}
        return {k: v for k, v in out.items() if v != 0}

    @staticmethod
    def merge(*snapshots: Dict[str, Number]) -> Dict[str, Number]:
        """Key-wise sum of snapshots (fixed buckets make this exact)."""
        out: Dict[str, Number] = {}
        for snap in snapshots:
            for key, value in snap.items():
                out[key] = out.get(key, 0) + value
        return dict(sorted(out.items()))
