"""The ``repro-trace/1`` JSONL schema: round-trips, tolerance, golden trace."""

import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.address import IPv4Address
from repro.telemetry import (
    FaultEvent,
    MembershipEvent,
    PacketEvent,
    ProtocolEvent,
    TraceBus,
    dump_jsonl,
)
from repro.telemetry.tracebus import (
    TRACE_SCHEMA,
    TraceFormatError,
    dumps_jsonl,
    load_jsonl,
    loads_jsonl,
    record_from_json,
    record_to_json,
)
from repro.telemetry.tracebus import RECORD_TYPES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "traces")

SAMPLE_RECORDS = [
    ProtocolEvent(
        time=1.5,
        kind="joined",
        group=IPv4Address("239.0.0.1"),
        detail="0.0220",
        router="R3",
    ),
    PacketEvent(
        time=2.25,
        kind="tx",
        link="L_R1_R2",
        node="R1",
        label="JOIN_REQUEST",
        src=IPv4Address("10.0.0.1"),
        dst=IPv4Address("10.0.0.2"),
        proto=7,
        size=36,
        uid=17,
        note="",
    ),
    MembershipEvent(
        time=3.0,
        router="R10",
        vif=1,
        group=IPv4Address("239.0.0.1"),
        present=True,
    ),
    FaultEvent(time=4.0, description="link L_R2_R3 down"),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "record", SAMPLE_RECORDS, ids=[r.RECORD_TYPE for r in SAMPLE_RECORDS]
    )
    def test_record_json_round_trip(self, record):
        line = record_to_json(record)
        payload = json.loads(line)
        assert payload["type"] == record.RECORD_TYPE
        assert list(payload) == sorted(payload)  # canonical key order
        parsed = record_from_json(line)
        assert parsed == record
        assert type(parsed) is type(record)

    def test_stream_round_trip(self):
        text = dumps_jsonl(SAMPLE_RECORDS)
        first = text.splitlines()[0]
        assert json.loads(first) == {"schema": TRACE_SCHEMA}
        assert loads_jsonl(text) == SAMPLE_RECORDS

    def test_dump_reports_count(self):
        buffer = io.StringIO()
        assert dump_jsonl(SAMPLE_RECORDS, buffer) == len(SAMPLE_RECORDS)

    def test_every_registered_type_covered(self):
        # A new record type must gain a sample here (and a golden pin).
        assert {r.RECORD_TYPE for r in SAMPLE_RECORDS} == set(RECORD_TYPES)


class TestTolerance:
    def test_unknown_fields_ignored(self):
        line = record_to_json(SAMPLE_RECORDS[0])
        payload = json.loads(line)
        payload["future_field"] = {"nested": True}
        parsed = record_from_json(json.dumps(payload))
        assert parsed == SAMPLE_RECORDS[0]

    def test_unknown_record_type_skipped(self):
        stream = "\n".join(
            [
                json.dumps({"schema": TRACE_SCHEMA}),
                json.dumps({"type": "hologram", "time": 1.0}),
                record_to_json(SAMPLE_RECORDS[3]),
            ]
        )
        assert loads_jsonl(stream) == [SAMPLE_RECORDS[3]]

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            loads_jsonl(record_to_json(SAMPLE_RECORDS[0]))

    def test_wrong_schema_rejected(self):
        stream = json.dumps({"schema": "repro-trace/999"}) + "\n"
        with pytest.raises(ValueError):
            loads_jsonl(stream)


HEADER = json.dumps({"schema": TRACE_SCHEMA})

#: Lines that are JSON but not a record a reader can build.
MALFORMED_LINES = [
    "[1,2]",
    '"repro-trace/1"',
    "3",
    "null",
    '{"type":"packet"}',
    '{"type":"fault","time":1.0}',
    '{"type":"protocol","time":1.0,"kind":"joined","group":"not-an-address"}',
    '{"type":"packet"',
]


class TestMalformedInput:
    """Unreadable input raises ``TraceFormatError`` — never the
    ``AttributeError`` / ``KeyError`` of the parser's own internals."""

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_bad_record_line_names_its_line(self, line):
        with pytest.raises(TraceFormatError):
            record_from_json(line)
        stream = "\n".join([HEADER, record_to_json(SAMPLE_RECORDS[3]), "", line])
        with pytest.raises(TraceFormatError, match=r"^line 4: "):
            loads_jsonl(stream)

    @pytest.mark.parametrize("line", ["[1,2]", '"repro-trace/1"', "3", "{"])
    def test_bad_header_line_names_its_line(self, line):
        with pytest.raises(TraceFormatError, match=r"^line 2: "):
            loads_jsonl("\n" + line + "\n" + record_to_json(SAMPLE_RECORDS[0]))

    def test_unhashable_type_is_an_unknown_type(self):
        assert record_from_json('{"type":["packet"]}') is None

    def test_error_is_a_value_error(self):
        assert issubclass(TraceFormatError, ValueError)
        with pytest.raises(TraceFormatError, match="empty trace stream"):
            loads_jsonl("\n\n")


class TestTraceBus:
    def test_publish_and_filter(self):
        bus = TraceBus()
        for record in SAMPLE_RECORDS:
            bus.publish(record)
        assert bus.records() == SAMPLE_RECORDS
        assert bus.records("fault") == [SAMPLE_RECORDS[3]]
        assert len(bus) == 4


class TestGoldenFigure1:
    """The Figure-1 walkthrough trace is pinned byte-for-byte.

    The pinned stream is the trace bus alone (``repro trace --jsonl``
    adds the packet records).  Regenerate after an intentional
    behaviour change with::

        PYTHONPATH=src python -c "import sys; from repro.cli import _run_figure1; \
        from repro.telemetry import dump_jsonl; \
        dump_jsonl(_run_figure1()[0].telemetry.bus.records(), sys.stdout)" \
        > tests/traces/figure1.jsonl
    """

    def _walkthrough_stream(self) -> str:
        from repro.cli import _run_figure1

        net, _domain, _group, _members = _run_figure1()
        return dumps_jsonl(net.telemetry.bus.records())

    def test_golden_trace_matches(self):
        with open(os.path.join(GOLDEN_DIR, "figure1.jsonl")) as fh:
            golden = fh.read()
        assert self._walkthrough_stream() == golden

    def test_protocol_events_are_the_bus_records(self):
        # The bus is the one store of protocol milestones: a router's
        # ``events_of`` is a view over it, and the domain's quiescence
        # counter (the per-kind counters) counts exactly its records.
        from repro.cli import _run_figure1

        net, domain, _group, _members = _run_figure1()
        on_bus = net.telemetry.bus.records("protocol")
        assert on_bus
        assert not hasattr(domain.protocol("R4"), "events")
        assert domain.events_total() == len(on_bus)
        for name, protocol in domain.protocols.items():
            mine = [r for r in on_bus if r.router == name]
            for kind in {r.kind for r in mine}:
                view = protocol.events_of(kind)
                expected = [r for r in mine if r.kind == kind]
                assert len(view) == len(expected)
                assert all(a is b for a, b in zip(view, expected))

    def test_events_total_counts_a_chaos_cells_protocol_records(self, monkeypatch):
        # At every quiescence reading of a chaos cell — faults, rejoins
        # and flushes included — the counter equals the domain's
        # protocol records on the bus (membership and fault records,
        # also on the bus, are not counted).
        import dataclasses

        from repro.harness import campaign

        readings = []
        leg = campaign.LEGS["cbt"]

        def activity(domain):
            names = set(domain.protocols)
            bus = domain.telemetry.bus
            records = [r for r in bus.records("protocol") if r.router in names]
            readings.append((leg.activity(domain), len(records), len(bus)))
            return readings[-1][0]

        monkeypatch.setitem(
            campaign.LEGS, "cbt", dataclasses.replace(leg, activity=activity)
        )
        result = campaign.run_scenario("core_crash", topology="waxman16", seed=3)
        assert result.recovered and len(readings) > 2
        assert all(total == records for total, records, _ in readings)
        assert any(records < on_bus for _, records, on_bus in readings)
        assert readings[-1][0] > readings[0][0]

    def test_golden_trace_parses(self):
        with open(os.path.join(GOLDEN_DIR, "figure1.jsonl")) as fh:
            records = load_jsonl(fh)
        assert records  # non-empty
        kinds = {r.RECORD_TYPE for r in records}
        assert "protocol" in kinds and "membership" in kinds
        # Every joined member produced a membership gain somewhere.
        joined = [r for r in records if r.RECORD_TYPE == "protocol" and r.kind == "joined"]
        assert joined


class TestGoldenFuzz:
    """Damage to the golden trace is rejected typed, like the codecs
    (tests/test_codec_robustness.py): nothing but a ``ValueError``
    subclass escapes ``load_jsonl``."""

    with open(os.path.join(GOLDEN_DIR, "figure1.jsonl"), "rb") as _fh:
        GOLDEN = _fh.read()

    @staticmethod
    def _load(data: bytes):
        return load_jsonl(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))

    def test_intact_file_round_trips_byte_identically(self):
        assert dumps_jsonl(self._load(self.GOLDEN)).encode() == self.GOLDEN

    @given(cut=st.integers(0, len(GOLDEN)))
    @settings(max_examples=300, deadline=None)
    def test_truncations(self, cut):
        intact = self._load(self.GOLDEN)
        try:
            records = self._load(self.GOLDEN[:cut])
        except ValueError:
            return
        # Cut between lines: what parsed is a prefix of the stream.
        assert records == intact[: len(records)]

    @given(index=st.integers(0, len(GOLDEN) - 1), value=st.integers(0, 255))
    @settings(max_examples=600, deadline=None)
    def test_byte_flips(self, index, value):
        damaged = bytearray(self.GOLDEN)
        damaged[index] = value
        try:
            self._load(bytes(damaged))
        except ValueError:
            pass

    #: Any JSON value: numbers out of an address's range, floats
    #: (NaN included), lists, objects, and strings near a dotted quad.
    JSON_VALUES = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-(2**40), 2**40)
        | st.floats()
        | st.text(max_size=20)
        | st.lists(st.integers(0, 300), min_size=3, max_size=5).map(
            lambda octets: ".".join(map(str, octets))
        ),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=6,
    )

    @given(
        field=st.sampled_from([(1, "src"), (1, "dst"), (0, "group"), (2, "group")]),
        value=JSON_VALUES,
    )
    @settings(max_examples=600, deadline=None)
    def test_address_fields_take_any_json_value(self, field, value):
        index, name = field
        payload = json.loads(record_to_json(SAMPLE_RECORDS[index]))
        payload[name] = value
        try:
            record = record_from_json(json.dumps(payload))
        except TraceFormatError:
            return
        assert type(record) is type(SAMPLE_RECORDS[index])
        address = getattr(record, name)
        assert address is None or type(address) is IPv4Address
