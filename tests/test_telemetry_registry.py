"""Unit tests for the zero-dependency metrics registry."""

from fnmatch import fnmatchcase
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import Counter, MetricsRegistry
from repro.telemetry.registry import DEFAULT_BUCKETS, FamilyNameError, Histogram


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("x")
        for _ in range(4):
            counter.inc()
        assert counter.value == 4

    def test_histogram_buckets(self):
        histogram = Histogram("h")
        for value in (0.5, 1.0, 1.5, 2.5, 50.0):
            histogram.observe(value)
        one, two_and_a_half = DEFAULT_BUCKETS.index(1.0), DEFAULT_BUCKETS.index(2.5)
        assert histogram.bucket_counts[one - 1 : one + 1] == [1, 1]
        assert histogram.bucket_counts[two_and_a_half] == 2
        assert histogram.bucket_counts[-1] == 1
        assert sum(histogram.bucket_counts) == histogram.count == 5
        assert histogram.sum == pytest.approx(55.5)

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_value_and_total(self):
        registry = MetricsRegistry()
        registry.counter("cbt.router.R1.tx.hello").value += 2
        registry.counter("cbt.router.R2.tx.hello").value += 3
        registry.counter("cbt.router.R1.tx.join_request").inc()
        assert registry.value("cbt.router.R1.tx.hello") == 2
        assert registry.value("missing") == 0
        assert registry.total("cbt.router.*.tx.hello") == 5
        assert registry.total("cbt.router.*.tx.*") == 6

    def test_matching_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").value += 2
        assert list(registry.matching("*")) == ["a", "b"]

    def test_snapshot_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.75)
        snap = registry.snapshot()
        assert snap["c"] == 1
        assert snap["h.count"] == 1
        assert snap["h.sum"] == pytest.approx(0.75)
        assert snap["h.le_1"] == 1
        assert snap["h.le_0.5"] == snap["h.le_inf"] == 0
        assert len([key for key in snap if key.startswith("h.le_")]) == len(DEFAULT_BUCKETS) + 1
        assert list(snap) == sorted(snap)

    def test_diff_and_merge(self):
        old = {"a": 1, "b": 2}
        new = {"a": 4, "c": 1}
        diff = MetricsRegistry.diff(new, old)
        assert diff == {"a": 3, "b": -2, "c": 1}
        merged = MetricsRegistry.merge(old, new)
        assert merged == {"a": 5, "b": 2, "c": 1}
        # Zero-difference keys are omitted.
        assert MetricsRegistry.diff({"a": 1}, {"a": 1}) == {}


class TestDeferredGaugeFamilies:
    """``gauge_attrs`` adds an object to its class's family of attribute
    statistics, named off the object, that every read reads in place,
    building no instrument; a registry wired that way must answer every
    read exactly as the plain map of every statistic's name to its
    attribute's value, which stays here as the reference."""

    METRICS = (("attempts", "attempt_count"), ("tx_packets", "tx_count"))

    class Wire:
        def __init__(self, seed, name):
            self.name = name
            self.attempt_count = seed
            self.tx_count = seed * 10

    def test_no_read_builds_a_gauge(self):
        registry = MetricsRegistry()
        first, second = self.Wire(1, "A"), self.Wire(2, "B")
        registry.gauge_attrs("netsim.link.", first, self.METRICS)
        registry.gauge_attrs("netsim.link.", second, self.METRICS)
        first.tx_count = 7
        assert registry.value("netsim.link.A.tx_packets") == 7
        assert registry.value("netsim.link.A.no_such_metric") == 0
        assert registry.value("netsim.link.C.attempts") == 0
        assert registry.total("netsim.link.*.attempts") == 3
        assert registry.matching("netsim.link.B.*") == {
            "netsim.link.B.attempts": 2, "netsim.link.B.tx_packets": 20
        }
        assert registry.snapshot()["netsim.link.A.tx_packets"] == 7

    def test_no_pattern_or_law_builds_a_gauge(self):
        from repro.core.bootstrap import CBTDomain
        from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
        from repro.netsim.packet import IPDatagram, PROTO_UDP, UDPDatagram
        from repro.telemetry.conservation import check_conservation
        from repro.topology.figures import build_figure1

        net = build_figure1(trace_enabled=False)
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        domain.start()
        net.run(until=3.0)
        registry = net.telemetry.registry
        assert registry.total("cbt.router.*.tx.hello") > 0
        assert registry.matching("igmp.*.rx.query")
        assert registry.matching("netsim.link.*.drop.late") == {}
        assert check_conservation(net, domain) == []
        assert registry.total("netsim.link.S4.*") > 0  # S4 alone
        # An idle domain sends nothing over a router-to-router link (no
        # HELLO, no IGMP query), so the test puts one datagram on it.
        link = net.link("L_R3_R4")
        sender = link.interfaces[0]
        sender.send(
            IPDatagram(
                sender.address,
                link.peer_of(sender).address,
                PROTO_UDP,
                UDPDatagram(9, 9, b"x"),
                1,
            )
        )
        assert registry.value("netsim.link.L_R3_R4.attempts") == 1
        assert registry.total("netsim.link.S1*.tx_packets") == sum(
            link.tx_count for name, link in net.links.items() if name.startswith("S1")
        )
        assert registry.total("*.attempts") == sum(
            link.attempt_count for link in net.links.values()
        )
        registry.snapshot()

    def test_families_read_without_building(self):
        registry = MetricsRegistry()
        first, second = self.Wire(1, "A"), self.Wire(2, "B")
        scheduler = self.Wire(1, "scheduler")
        registry.gauge_attrs("netsim.link.", second, self.METRICS)
        registry.gauge_attrs("netsim.link.", first, self.METRICS)
        registry.gauge_attrs("netsim.", scheduler, self.METRICS)
        assert registry.value("netsim.link.B.attempts") == 2
        first.tx_count = scheduler.tx_count = 7
        links = registry.columns("netsim.link.", "attempts", "tx_packets")
        assert links == {"netsim.link.A.": (1, 7), "netsim.link.B.": (2, 20)}
        assert list(links) == ["netsim.link.A.", "netsim.link.B."]
        assert registry.columns("netsim.", "tx_packets", "attempts") == {
            "netsim.link.A.": (7, 1),
            "netsim.link.B.": (20, 2),
            "netsim.scheduler.": (7, 1),
        }
        assert registry.columns("netsim.link.", "attempts") == {
            "netsim.link.A.": 1, "netsim.link.B.": 2
        }
        assert registry.columns("netsim.link.", "attempts", "other") == {}

    def test_a_family_statistic_is_no_instrument(self):
        registry = MetricsRegistry()
        registry.gauge_attrs("netsim.link.", self.Wire(4, "A"), self.METRICS)
        registry.gauge_attrs("igmp.router.", self.Wire(4, "R1"), (("tx.query", "tx_count"),))
        for name in ("netsim.link.A.attempts", "igmp.router.R1.tx.query"):
            with pytest.raises(FamilyNameError):
                registry.counter(name)
        assert registry.value("igmp.router.R1.tx.query") == 40
        assert registry.counter("netsim.link.A.elsewhere").value == 0  # a new counter
        assert registry.counter("igmp.router.R1.tx").value == 0  # not a metric
        assert sorted(registry.snapshot()) == [
            "igmp.router.R1.tx",
            "igmp.router.R1.tx.query",
            "netsim.link.A.attempts",
            "netsim.link.A.elsewhere",
            "netsim.link.A.tx_packets",
        ]

    def _agrees_with_eager_wiring(self, metrics, families, reads):
        """Each index registers a fresh wire named ``L<index>`` (values
        unlike the last one's) in the family ``netsim.link.``, where,
        once it exists, a counter under the head named like any link's
        statistic is refused, registered or not."""
        registry = MetricsRegistry()
        bound = {}
        for count, index in enumerate(families):  # a repeated name re-binds
            wire = self.Wire(index, f"L{index}")
            wire.attempt_count = 100 + count
            registry.gauge_attrs("netsim.link.", wire, metrics)
            bound[f"netsim.link.L{index}."] = wire
        counters = {}  # the counters the reads made, all still 0

        def oracle():
            values = {
                prefix + metric: attrgetter(attr)(wire)
                for prefix, wire in bound.items()
                for metric, attr in metrics
            }
            values.update(counters)
            return dict(sorted(values.items()))

        for kind, index, metric in reads:
            name = f"netsim.link.L{index}.{metric}"
            expected = oracle()
            if kind == "counter":
                if "*" in metric:
                    continue
                if families and metric in dict(metrics):
                    with pytest.raises(FamilyNameError):
                        registry.counter(name)
                else:
                    counters[name] = registry.counter(name).value
                    assert counters[name] == 0
            elif kind == "columns":
                if "*" in metric:
                    continue
                attr = dict(metrics).get(metric)
                assert registry.columns("netsim.link.", metric) == {
                    prefix: attrgetter(attr)(wire)
                    for prefix, wire in sorted(bound.items())
                    if attr is not None
                }
            elif kind == "value":
                assert registry.value(name) == expected.get(name, 0)
            elif kind == "total":
                assert registry.total(name) == sum(
                    value for key, value in expected.items() if fnmatchcase(key, name)
                )
            elif kind == "matching":
                assert registry.matching(name) == {
                    key: value for key, value in expected.items() if fnmatchcase(key, name)
                }
            else:
                assert registry.snapshot() == expected
        assert registry.snapshot() == oracle()

    @given(
        families=st.lists(st.integers(0, 5), max_size=8),
        reads=st.lists(
            st.tuples(
                st.sampled_from(
                    ["value", "total", "matching", "snapshot", "counter", "columns"]
                ),
                st.integers(0, 6),
                st.sampled_from(["attempts", "tx_packets", "other", "*"]),
            ),
            max_size=12,
        ),
    )
    def test_every_read_agrees_with_eager_wiring(self, families, reads):
        self._agrees_with_eager_wiring(self.METRICS, families, reads)

    @given(
        families=st.lists(st.integers(0, 5), max_size=8),
        reads=st.lists(
            st.tuples(
                st.sampled_from(
                    ["value", "total", "matching", "snapshot", "counter", "columns"]
                ),
                st.integers(0, 6),
                st.sampled_from(
                    ["tx.query", "rx.query", "gains", "tx", "tx.*", "*.query", "t*", "*"]
                ),
            ),
            max_size=12,
        ),
    )
    def test_dotted_metrics_agree_with_eager_wiring(self, families, reads):
        """A metric may hold a dot: a pattern's literal head then runs
        past the family prefix into the metric (``…L1.tx.*``)."""
        dotted = (
            ("tx.query", "tx_count"),
            ("rx.query", "attempt_count"),
            ("gains", "tx_count"),
        )
        self._agrees_with_eager_wiring(dotted, families, reads)


    def test_a_class_family_names_its_members_off_the_objects(self):
        """One family per head: the names come from each object's
        ``name``, sorted by the full dotted name (``S1-x`` before
        ``S1``, as ``-`` sorts before ``.``), and the later object
        registered under a name wins it."""
        registry = MetricsRegistry()
        first = self.Wire(1, "S1")
        for wire in (first, self.Wire(2, "S1-x"), self.Wire(3, "S1")):
            registry.gauge_attrs("netsim.link.", wire, self.METRICS)
        assert list(registry._families) == ["netsim.link."]
        assert list(registry.columns("netsim.link.", "attempts")) == [
            "netsim.link.S1-x.", "netsim.link.S1."
        ]
        assert registry.value("netsim.link.S1.attempts") == 3
        assert registry.total("netsim.link.*.attempts") == 5
        assert registry.matching("netsim.link.S1.*") == {
            "netsim.link.S1.attempts": 3, "netsim.link.S1.tx_packets": 30
        }
        assert list(registry.snapshot()) == [
            "netsim.link.S1-x.attempts",
            "netsim.link.S1-x.tx_packets",
            "netsim.link.S1.attempts",
            "netsim.link.S1.tx_packets",
        ]
        with pytest.raises(FamilyNameError):
            registry.counter("netsim.link.NoSuchLink.attempts")
        assert registry.counter("netsim.link.attempts").value == 0  # no entity
        with pytest.raises(ValueError):
            registry.gauge_attrs("netsim.link.", first, (("attempts", "tx_count"),))

# -- indexed reads against a linear oracle ---------------------------------


def oracle_total(counters, pattern):
    """What ``total`` means: every counter whose name
    ``fnmatchcase``-matches."""
    return sum(v for n, v in counters.items() if fnmatchcase(n, pattern))


def oracle_matching(counters, pattern):
    return {n: counters[n] for n in sorted(counters) if fnmatchcase(n, pattern)}


def oracle_histograms(histograms, pattern):
    return [n for n in sorted(histograms) if fnmatchcase(n, pattern)]


SEGMENTS = ["a", "b", "ab", "tx", "rx", "R1", "R2", "join", "x]y", ""]


def _names():
    return st.lists(st.sampled_from(SEGMENTS), min_size=1, max_size=4).map(".".join)


def _patterns():
    """Every query shape: pure prefix, literal last segment behind
    wildcards, ``?``/``[..]`` (also spanning a dot), a wildcard last
    segment, and no dot at all."""
    piece = st.sampled_from(SEGMENTS + ["*", "?", "R?", "[ab]", "[!a]*", "a*", "[.x]"])
    dotted = st.lists(piece, min_size=1, max_size=4).map(".".join)
    prefix = _names().map(lambda name: name + "*")
    spanning = st.sampled_from(["a[.]b", "*[.]tx", "a[.b", "*]y", "*.x]y", "*"])
    return st.one_of(dotted, prefix, _names(), spanning)


class TestIndexedReadsMatchLinearOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        first=st.lists(st.tuples(_names(), st.sampled_from("ch")), max_size=12),
        later=st.lists(st.tuples(_names(), st.sampled_from("ch")), max_size=12),
        patterns=st.lists(_patterns(), min_size=1, max_size=6),
    )
    def test_total_matching_histograms(self, first, later, patterns):
        registry = MetricsRegistry()
        counters, histograms = {}, set()

        def create(batch):
            for name, kind in batch:
                value = len(counters) + 1
                if kind == "h":
                    registry.histogram(name)
                    histograms.add(name)
                else:
                    # A counter and a histogram may share a name.
                    registry.counter(name).value += value
                    counters[name] = counters.get(name, 0) + value

        def check():
            for pattern in patterns:
                assert registry.total(pattern) == oracle_total(counters, pattern), pattern
                got = registry.matching(pattern)
                assert got == oracle_matching(counters, pattern), pattern
                assert list(got) == sorted(got), pattern
                assert [
                    h.name for h in registry.histograms_matching(pattern)
                ] == oracle_histograms(histograms, pattern), pattern

        create(first)
        check()  # builds every index the patterns need
        create(later)  # instruments created after the indexes exist
        check()


class TestConservationThroughTheIndex:
    def test_same_findings_as_a_linear_registry(self, monkeypatch):
        from repro.core.bootstrap import CBTDomain
        from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
        from repro.telemetry import registry as registry_module
        from repro.telemetry.conservation import check_conservation
        from repro.topology.generators import waxman_network

        net = waxman_network(120, seed=5)
        net.trace.enabled = False
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        domain.start()
        net.run(until=3.0)
        registry = net.telemetry.registry
        assert check_conservation(net, domain) == []
        # Break two laws so the list compared below is not empty.
        registry.counter("cbt.router.N7.tx.join_request").inc()
        domain.protocol("N9").igmp.stats.reports_heard += 10_000
        indexed = check_conservation(net, domain)
        assert len(indexed) >= 2
        # The same registry with both indexes switched off: every
        # pattern query falls through to the full fnmatchcase scan.
        monkeypatch.setattr(registry_module, "_plain_prefix", lambda pattern: None)
        monkeypatch.setattr(registry_module, "_literal_tail", lambda pattern: None)
        assert check_conservation(net, domain) == indexed


class TestFigure1Registry:
    def test_instrument_count_is_pinned(self):
        """What a Figure-1 domain registers once four members joined
        through cores R4 and R9: compared for equality, so an
        instrument added or lost on any layer shows here.  (625 while
        HELLOs also crossed point-to-point links: R4, R8, R9, R10 and
        R12 share a LAN with no other CBT router, so no
        ``rx.hello`` counter exists for them.)"""
        from repro.core.bootstrap import CBTDomain
        from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
        from repro.netsim.address import group_address
        from repro.topology.figures import build_figure1

        net = build_figure1(trace_enabled=False)
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        group = group_address(0)
        domain.create_group(group, cores=["R4", "R9"])
        domain.start()
        net.run(until=3.0)
        start = net.scheduler.now
        for index, member in enumerate(["A", "B", "G", "H"]):
            net.scheduler.call_at(start + 0.05 * index, domain.join_host, member, group)
        net.run(until=start + 8.0)
        assert len(net.telemetry.registry.snapshot()) == 620
