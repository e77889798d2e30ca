"""Zero-dependency metrics registry (the observability layer's core).

Two instrument kinds, modelled on the conventional MIB/metrics
split real router implementations expose:

* :class:`Counter` — monotonically increasing event count (messages
  sent by type, drops by reason).
* :class:`Histogram` — fixed bucket boundaries chosen at creation
  (join latencies).  Fixed boundaries keep snapshots mergeable:
  bucket-wise addition is exact, unlike quantile sketches.

Beside them, attribute *families*: an entity that counts its own
statistics as plain int attributes (a link's wire counts, a router's
joins completed, an IGMP agent's messages) registers them once with
:meth:`MetricsRegistry.gauge_attrs` under a name prefix.  A family is
one dict entry, not an instrument per statistic, and every read
(``value``, ``total``, ``matching``, ``columns``, ``snapshot``) reads
the attributes in place: no query builds an instrument, and the names
exist only in what a read returns (docs/OBSERVABILITY.md, "Attribute
families").  A point-in-time value is a family statistic; there is no
gauge instrument.

Names are hierarchical dotted paths (``cbt.router.R4.tx.join_request``)
so snapshots group naturally and :meth:`MetricsRegistry.total` can
aggregate with shell-style wildcards.  Pattern queries are indexed by
shape (:class:`_NameIndex`): a pure prefix bisects the sorted names, a
pattern whose last dotted segment is literal — every pattern the
conservation laws use — matches only the names sharing that segment,
and only the remaining shapes scan the whole registry.  A scan is the
pattern's compiled expression filtered over the names in one C loop,
the ``fnmatchcase`` test without a Python call per name.  A family
statistic is tested only if its family's prefix lies under the
pattern's literal head and its last segment can match.

Determinism: nothing here reads wall-clock time or has any other
hidden input — every value is a pure function of the simulation, so a
snapshot of a deterministic run is byte-for-byte reproducible.

There is no disabled mode: the protocol's own statistics are registry
instruments or families, so every one handed out counts
(docs/PERFORMANCE.md, "Decision record: telemetry has one mode").
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fnmatch import translate
from itertools import islice
from math import isfinite
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
        bounds = tuple(bounds)
        if bounds is not DEFAULT_BUCKETS and not (
            bounds
            and all(map(isfinite, bounds))
            and all(low < high for low, high in zip(bounds, bounds[1:]))
        ):
            # A repeated bound would share its ``le_`` snapshot key with
            # the first, and the snapshot would lose a bucket's count.
            raise ValueError(
                f"histogram bounds must be finite, strictly increasing and non-empty: {bounds}"
            )
        self.name = name
        self.bounds: Tuple[float, ...] = bounds
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


class FamilyNameError(ValueError):
    """A counter was asked for under a name a
    :meth:`MetricsRegistry.gauge_attrs` family owns: the family's
    attribute *is* that statistic, so a counter of the same name would
    count apart from it."""


class _Kind:
    """One shape of :meth:`MetricsRegistry.gauge_attrs` family: its
    metric names and the attributes (dotted for an attribute of an
    attribute) they are read from.  Like ``attrgetter``, a reader of
    one attribute returns the value and a reader of several a tuple."""

    __slots__ = ("names", "attrs", "read", "one", "tails", "_readers")

    def __init__(self, metrics: Sequence[Tuple[str, str]]) -> None:
        self.names = names = tuple(metric for metric, _ in metrics)
        self.attrs = attrs = tuple(attr for _, attr in metrics)
        self.read = attrgetter(*attrs)
        #: metric -> the reader of that one metric.
        self.one: Dict[str, Callable] = {
            name: attrgetter(attr) for name, attr in zip(names, attrs)
        }
        #: last dotted segment -> the metrics ending in it.
        self.tails: Dict[str, Tuple[str, ...]] = {}
        for name in names:
            tail = name.rpartition(".")[2]
            self.tails[tail] = self.tails.get(tail, ()) + (name,)
        self._readers: Dict[Tuple[str, ...], Optional[Callable]] = {}

    def values(self, obj: Any) -> Tuple[Number, ...]:
        """Every metric's value, in :attr:`names` order."""
        values = self.read(obj)
        return values if len(self.names) > 1 else (values,)

    def reader(self, metrics: Tuple[str, ...]) -> Optional[Callable]:
        """One reader of ``metrics`` (a value for one, a tuple for
        several), or ``None`` when this kind lacks one of them."""
        if metrics not in self._readers:
            reader = None
            if all(metric in self.one for metric in metrics):
                attrs, names = self.attrs, self.names
                reader = attrgetter(*(attrs[names.index(metric)] for metric in metrics))
            self._readers[metrics] = reader
        return self._readers[metrics]


class MetricsRegistry:
    """Instrument factory + snapshot surface.

    Instruments are created on first request and shared thereafter
    (same name → same object), so callers can pre-resolve them at
    construction time and pay only an attribute access + ``inc()`` on
    hot paths.  Attribute families (:meth:`gauge_attrs`) are read in
    place by every query.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._counter_names = _NameIndex(self._counters)
        self._histogram_names = _NameIndex(self._histograms)
        #: prefix -> (object, its kind) of every :meth:`gauge_attrs`
        #: family.
        self._families: Dict[str, Tuple[Any, _Kind]] = {}
        self._family_names = _NameIndex(self._families)
        #: Each distinct ``metrics`` sequence :meth:`gauge_attrs` saw ->
        #: its kind (every link has the same six: one reader for all).
        self._kinds: Dict[Sequence[Tuple[str, str]], _Kind] = {}
        #: The last segment of every family metric: a pattern whose
        #: literal last segment is none of them matches no family.
        self._family_tails: Set[str] = set()
        #: The most dots any family metric holds (``tx.query`` one), so
        #: how far before a name's last dot its family prefix can end.
        self._family_depth = 0

    # -- instrument factories -------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            if self._owner(name) is not None:
                raise FamilyNameError(f"{name} is an attribute family's statistic")
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def gauge_attrs(
        self, prefix: str, obj: Any, metrics: Sequence[Tuple[str, str]]
    ) -> None:
        """Register ``obj``'s statistics as the family ``prefix``: the
        statistic ``prefix + metric`` is ``obj``'s attribute ``attr``
        for each ``(metric, attr)`` pair (``prefix`` ends in a dot; a
        metric may hold dots, ``tx.query``; an attr may too, read as an
        attribute of an attribute).  One entry for the family, whatever
        its size; registering ``prefix`` again re-binds it.  Pass the
        same ``metrics`` object for every family of a kind.  Every read
        reads ``obj``, after ``Scheduler.close`` too: register what
        closing leaves intact (a link, a small stats object), not a
        scheduler component, whose attributes closing empties."""
        kind = self._kinds.get(metrics)
        if kind is None:
            kind = self._kinds[metrics] = _Kind(metrics)
            self._family_tails.update(kind.tails)
            self._family_depth = max(
                self._family_depth, *(name.count(".") for name in kind.names)
            )
        self._families[prefix] = (obj, kind)

    def _owner(self, name: str) -> Optional[Tuple[Any, _Kind, str]]:
        """``(object, kind, metric)`` of the family statistic ``name``,
        or ``None``: its last segment ends a family metric, and its
        prefix ends at one of the name's last dots."""
        if name[name.rfind(".") + 1 :] not in self._family_tails:
            return None
        families = self._families
        end = len(name)
        for _ in range(self._family_depth + 1):
            dot = name.rfind(".", 0, end)
            if dot < 0:
                break
            family = families.get(name[: dot + 1])
            if family is not None and name[dot + 1 :] in family[1].one:
                return family[0], family[1], name[dot + 1 :]
            end = dot
        return None

    def _family_values(self, pattern: str) -> List[Tuple[str, Number]]:
        """``(name, value)`` of every family statistic matching
        ``pattern``.  The candidates are the families under the
        pattern's literal head, found in the sorted family index, and
        those whose prefix the head runs past into a metric — none when
        the pattern's literal last segment ends no family metric."""
        families = self._families
        if not families:
            return []
        tail = _literal_tail(pattern)
        if tail is not None and tail not in self._family_tails:
            return []
        head = _literal_head(pattern)
        prefixes = self._family_names.select(head + "*")
        end = len(head)
        for _ in range(self._family_depth + 1):
            dot = head.rfind(".", 0, end)
            if dot < 0:
                break
            inside = head[: dot + 1]
            if inside != head and inside in families:
                prefixes.append(inside)
            end = dot
        match = _matcher(pattern)
        out = []
        for prefix in prefixes:
            obj, kind = families[prefix]
            for metric in kind.names if tail is None else kind.tails.get(tail, ()):
                name = prefix + metric
                if match(name):
                    out.append((name, kind.one[metric](obj)))
        return out

    def columns(self, head: str, *metrics: str) -> Dict[str, Any]:
        """``prefix -> value`` of ``metrics[0]`` (``prefix -> tuple`` of
        the values when several are named) for every family under
        ``head`` that has them all, sorted by prefix: one ``attrgetter``
        call per family, no dict per family."""
        families = self._families
        out = {}
        last_kind = last_reader = None
        for prefix in self._family_names.select(head + "*"):
            obj, kind = families[prefix]
            if kind is not last_kind:
                last_kind, last_reader = kind, kind.reader(metrics)
            if last_reader is not None:
                out[prefix] = last_reader(obj)
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

    def value(self, name: str) -> Number:
        """Current value of counter or family statistic ``name`` (0 if
        there is none)."""
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
        owner = self._owner(name)
        if owner is not None:
            obj, kind, metric = owner
            return kind.one[metric](obj)
        return 0

    def total(self, pattern: str) -> Number:
        """Sum of counter and family values whose names match the
        shell-style ``pattern`` (``fnmatch``; ``*`` does cross ``.``
        boundaries).  Only a pattern whose last dotted segment holds a
        wildcard (other than a pure prefix ``a.b.*``) scans every name
        — see :class:`_NameIndex`."""
        counters = self._counters
        return sum(
            counters[name].value for name in self._counter_names.select(pattern)
        ) + sum(value for _, value in self._family_values(pattern))

    def matching(self, pattern: str) -> Dict[str, Number]:
        """Counter and family values whose names match ``pattern``,
        sorted by name (the counter wins a shared name)."""
        counters = self._counters
        out: Dict[str, Number] = dict(self._family_values(pattern))
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
        overflow bucket).  Families are read here.
        """
        out: Dict[str, Number] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for prefix, (obj, kind) in self._families.items():
            for metric, value in zip(kind.names, kind.values(obj)):
                out[prefix + metric] = value
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
