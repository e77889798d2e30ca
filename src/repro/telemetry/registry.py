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
joins completed, an IGMP agent's messages) joins the family of its
class with :meth:`MetricsRegistry.gauge_attrs`: one family per head
(``netsim.link.``), its kind and a list of objects, each statistic
``head + obj.name + "." + metric``.  Every read (``value``, ``total``,
``matching``, ``columns``, ``snapshot``) reads the attributes in
place: no query builds an instrument, and the names exist only in what
a read returns (docs/OBSERVABILITY.md, "Attribute families").  A
point-in-time value is a family statistic; there is no gauge
instrument.

Names are hierarchical dotted paths (``cbt.router.R4.tx.join_request``)
so snapshots group naturally and :meth:`MetricsRegistry.total` can
aggregate with shell-style wildcards.  Counter queries are indexed by
shape (:class:`_NameIndex`): a pure prefix bisects the sorted names, a
pattern whose last dotted segment is literal — every pattern the
conservation laws use — matches only the names sharing that segment,
and only the remaining shapes scan the whole registry.  A scan is the
pattern's compiled expression filtered over the names in one C loop,
the ``fnmatchcase`` test without a Python call per name.  A family is
walked only if its head and the pattern's literal head can share a
name; a literal head that runs into a member's name reads that member
alone, found by name.

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

    def inc(self) -> None:
        self.value += 1

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Cumulative-style histogram over the :data:`DEFAULT_BUCKETS`
    boundaries.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` exclusive
    of earlier buckets (i.e. per-bucket, not cumulative, in memory);
    the overflow bucket counts observations above the last bound.
    Snapshots expose per-bucket counts plus ``count`` and ``sum``, so
    ``sum(bucket_counts) == count`` is a checkable conservation law.
    """

    __slots__ = ("name", "bucket_counts", "count", "sum")

    bounds = DEFAULT_BUCKETS

    def __init__(self, name: str) -> None:
        self.name = name
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

    __slots__ = ("names", "attrs", "one", "_readers")

    def __init__(self, metrics: Sequence[Tuple[str, str]]) -> None:
        self.names = names = tuple(metric for metric, _ in metrics)
        self.attrs = attrs = tuple(attr for _, attr in metrics)
        #: metric -> the reader of that one metric.
        self.one: Dict[str, Callable] = {
            name: attrgetter(attr) for name, attr in zip(names, attrs)
        }
        self._readers: Dict[Tuple[str, ...], Optional[Callable]] = {}

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


class _Family:
    """The objects registered under one head, all of one kind: an
    object's statistic is ``head + obj.name + "." + metric``."""

    __slots__ = ("head", "kind", "objects", "_by_name")

    def __init__(self, head: str, kind: _Kind) -> None:
        self.head, self.kind = head, kind
        self.objects: List[Any] = []
        #: (objects indexed, name -> object), made by a read by name.
        self._by_name: Tuple[int, Dict[str, Any]] = (0, {})

    def members(self, head: str) -> Dict[str, Any]:
        """``prefix -> object`` of the members a name starting with
        ``head`` can belong to, the later object winning a name."""
        if not (self.head.startswith(head) or head.startswith(self.head)):
            return {}
        entity, dot, _ = head[len(self.head) :].partition(".")
        if dot:  # ``head`` runs past this family's head into one member
            obj = self.find(entity)
            return {} if obj is None else {f"{self.head}{entity}.": obj}
        return {self.head + obj.name + ".": obj for obj in self.objects}

    def find(self, name: str) -> Any:
        """The object last registered as ``name``, or ``None``."""
        if self._by_name[0] != len(self.objects):
            self._by_name = (len(self.objects), {obj.name: obj for obj in self.objects})
        return self._by_name[1].get(name)


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
        #: head -> its attribute family.
        self._families: Dict[str, _Family] = {}
        #: Each distinct ``metrics`` sequence :meth:`gauge_attrs` saw ->
        #: its kind (every link has the same six: one reader for all).
        self._kinds: Dict[Sequence[Tuple[str, str]], _Kind] = {}
        #: The last segment of every family metric: a pattern whose
        #: literal last segment is none of them matches no family.
        self._family_tails: Set[str] = set()

    # -- instrument factories -------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            if self._statistic(name):
                raise FamilyNameError(f"{name} is an attribute family's statistic")
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def gauge_attrs(
        self, head: str, obj: Any, metrics: Sequence[Tuple[str, str]]
    ) -> None:
        """Add ``obj`` to the family ``head`` (ends in a dot): its
        statistic ``head + obj.name + "." + metric`` is its attribute
        ``attr`` for each ``(metric, attr)`` pair (a metric may hold
        dots, ``tx.query``; an attr may too, read as an attribute of an
        attribute); the name holds no dot, and the later object
        registered under a name wins it.  Pass the same ``metrics``
        object for every member.  Every read reads ``obj``, after
        ``Scheduler.close`` too: register what closing leaves intact (a
        link, a small stats object), not a scheduler component, whose
        attributes closing empties."""
        kind = self._kinds.get(metrics)
        if kind is None:
            kind = self._kinds[metrics] = _Kind(metrics)
            self._family_tails.update(name.rpartition(".")[2] for name in kind.names)
        family = self._families.get(head)
        if family is None:
            family = self._families[head] = _Family(head, kind)
        if family.kind is not kind or "." in obj.name:
            raise ValueError(f"{head}{obj.name}: a dotted name, or another kind's family")
        family.objects.append(obj)

    def _statistic(self, name: str) -> List[Tuple[_Family, str, str]]:
        """``(family, entity name, metric)`` for each family ``name`` has
        the form of a statistic of, whether or not an object has that
        name: one set lookup for most names."""
        if name[name.rfind(".") + 1 :] not in self._family_tails:
            return []
        found = []
        for family in self._families.values():
            if name.startswith(family.head):
                entity, _, metric = name[len(family.head) :].partition(".")
                if entity and metric in family.kind.one:
                    found.append((family, entity, metric))
        return found

    def _family_values(self, pattern: str) -> Dict[str, Number]:
        """``name -> value`` of every family statistic matching ``pattern``."""
        tail = _literal_tail(pattern)
        if tail is not None and tail not in self._family_tails:
            return {}
        head = _literal_head(pattern)
        match = _matcher(pattern)
        out = {}
        for family in self._families.values():
            kind = family.kind
            for prefix, obj in family.members(head).items():
                for metric in kind.names:
                    if match(prefix + metric):
                        out[prefix + metric] = kind.one[metric](obj)
        return out

    def columns(self, head: str, *metrics: str) -> Dict[str, Any]:
        """``prefix -> value`` of ``metrics[0]`` (``prefix -> tuple`` of
        the values when several are named) for every family member
        under ``head`` whose kind has them all, sorted by prefix: one
        ``attrgetter`` call per member, no dict per member."""
        out = {}
        for family in self._families.values():
            reader = family.kind.reader(metrics)
            if reader is not None:
                for prefix, obj in family.members(head).items():
                    if prefix.startswith(head):
                        out[prefix] = reader(obj)
        return dict(sorted(out.items()))

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name)
            self._histograms[name] = histogram
        return histogram

    # -- queries ---------------------------------------------------------

    def value(self, name: str) -> Number:
        """Current value of counter or family statistic ``name`` (0 if
        there is none)."""
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
        for family, entity, metric in self._statistic(name):
            obj = family.find(entity)
            if obj is not None:
                return family.kind.one[metric](obj)
        return 0

    def total(self, pattern: str) -> Number:
        """Sum of counter and family values whose names match the
        shell-style ``pattern`` (``fnmatch``; ``*`` does cross ``.``
        boundaries).  Only a pattern whose last dotted segment holds a
        wildcard (other than a pure prefix ``a.b.*``) scans every
        counter name — see :class:`_NameIndex`."""
        counters = self._counters
        return sum(
            counters[name].value for name in self._counter_names.select(pattern)
        ) + sum(self._family_values(pattern).values())

    def matching(self, pattern: str) -> Dict[str, Number]:
        """Counter and family values whose names match ``pattern``,
        sorted by name (the counter wins a shared name)."""
        counters = self._counters
        out = self._family_values(pattern)
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
        for family in self._families.values():
            names = family.kind.names
            read = family.kind.reader(names)
            for prefix, obj in family.members("").items():
                values = read(obj)
                for metric, value in zip(names, values if len(names) > 1 else (values,)):
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
