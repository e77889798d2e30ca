"""Unified observability layer: metrics registry + structured trace bus.

One :class:`Telemetry` bundle hangs off every
:class:`repro.netsim.engine.Scheduler`, so every component that can
schedule events (links, routers, protocols, IGMP agents) reaches the
same registry and bus without extra plumbing.  See
docs/OBSERVABILITY.md for the naming conventions and the conservation
laws the counters satisfy.

This package imports nothing from the rest of ``repro`` when it loads
— the dependency arrow points strictly inward (netsim/core/igmp import
telemetry, never the reverse); the trace reader reaches
``repro.netsim.address`` only when it parses a record.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.telemetry.registry import (
    Counter,
    DEFAULT_BUCKETS,
    FamilyNameError,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracebus import (
    FaultEvent,
    MembershipEvent,
    PacketEvent,
    ProtocolEvent,
    TRACE_SCHEMA,
    TraceBus,
    TraceFormatError,
    dump_jsonl,
    dumps_jsonl,
    load_jsonl,
    loads_jsonl,
    payload_label,
    record_from_json,
    record_to_json,
)

Number = Union[int, float]


class MsgCounters:
    """Pre-resolved per-payload-label wire counters (hot path).

    ``tx`` counts datagrams accepted onto a wire (per hop), ``sched``
    scheduled delivery events (fan-out), ``rx`` completed deliveries.
    Drops are resolved lazily by reason — they are cold paths.
    """

    __slots__ = ("label", "tx", "sched", "rx")

    def __init__(
        self, label: str, tx: Counter, sched: Counter, rx: Counter
    ) -> None:
        self.label = label
        self.tx = tx
        self.sched = sched
        self.rx = rx


class Telemetry:
    """Per-scheduler observability bundle (registry + trace bus)."""

    __slots__ = (
        "registry", "bus", "_msg", "_msg_by_key", "_msg_by_proto", "_msg_drops"
    )

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.bus = TraceBus()
        self._msg: Dict[str, MsgCounters] = {}
        #: Shortcuts for the transmit hot path (no label string
        #: resolution): the bundle by what decides a payload's label —
        #: its ``msg_type`` member or else its class, and for raw bytes
        #: the datagram's protocol number.
        self._msg_by_key: Dict[object, MsgCounters] = {}
        self._msg_by_proto: Dict[int, MsgCounters] = {}
        self._msg_drops: Dict[tuple, Counter] = {}

    def msg(self, label: str) -> MsgCounters:
        """Cached per-payload-label wire counter bundle."""
        counters = self._msg.get(label)
        if counters is None:
            base = f"netsim.msg.{label}"
            counters = MsgCounters(
                label,
                self.registry.counter(base + ".tx"),
                self.registry.counter(base + ".sched"),
                self.registry.counter(base + ".rx"),
            )
            self._msg[label] = counters
        return counters

    def msg_dropped(self, label: str, reason: str, amount: Number = 1) -> None:
        """Count a per-label drop (reasons: link_down, gate, loss,
        no_host, late, no_route, ttl, iface_down).  Resolved counters
        are cached by (label, reason) — convergence-time no_host drops
        make this warmer than it looks."""
        key = (label, reason)
        counter = self._msg_drops.get(key)
        if counter is None:
            counter = self._msg_drops[key] = self.registry.counter(
                f"netsim.msg.{label}.drop.{reason}"
            )
        counter.inc(amount)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FamilyNameError",
    "FaultEvent",
    "Histogram",
    "MembershipEvent",
    "MetricsRegistry",
    "MsgCounters",
    "PacketEvent",
    "ProtocolEvent",
    "TRACE_SCHEMA",
    "Telemetry",
    "TraceBus",
    "TraceFormatError",
    "dump_jsonl",
    "dumps_jsonl",
    "load_jsonl",
    "loads_jsonl",
    "payload_label",
    "record_from_json",
    "record_to_json",
]
