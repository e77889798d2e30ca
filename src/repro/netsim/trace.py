"""Packet trace capture.

Every transmission on every link can be recorded into a
:class:`PacketTrace`.  Tests assert on message sequences; metrics
modules derive link loads, control-message counts, and delivery
latencies from the same records.

This stays beside the telemetry trace bus (decided in PR 23,
ROADMAP "Retire the parallel paths" (b)): a record here keeps the
datagram *object*, which ``metrics/{overhead,latency}.py`` and
experiment E10 read, where a bus ``PacketEvent`` is the flattened
export made from it on demand (``repro trace`` merges those into the
``repro-trace/1`` stream); and
``enabled`` has two values in real use.  The trace is recorded where
it is read: on for the hand-built topologies of the experiments,
walkthroughs and golden-trace tests (``build_figure1()``); off for
generated topologies (``topology.generators.realise``) and for every
cell and explorer world, Figure 1 included
(``build_figure1(trace_enabled=False)``), which observe through
counters and host logs — there a record per transmission and delivery
would cost calls per event and keep every datagram alive until the
network closes, for nothing.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.netsim.packet import IPDatagram, Record


class TraceRecord(Record):
    """One transmission event.

    ``kind`` is ``"tx"`` for a transmission onto a link, ``"rx"`` for a
    delivery into a node, and ``"drop"`` for a loss (link down, TTL
    expiry, loss model).
    """

    time: float
    kind: str
    link_name: str
    node_name: str
    datagram: IPDatagram
    note: str = ""


class PacketTrace:
    """Append-only record of link-level events with query helpers."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def record(self, record: TraceRecord) -> None:
        if self.enabled:
            self._records.append(record)

    def clear(self) -> None:
        self._records.clear()

    # -- query helpers -------------------------------------------------

    def transmissions(self) -> List[TraceRecord]:
        """All ``tx`` records."""
        return [r for r in self._records if r.kind == "tx"]

    def filter(
        self,
        kind: Optional[str] = None,
        proto: Optional[int] = None,
        link_name: Optional[str] = None,
        node_name: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Records matching every supplied criterion."""
        out = []
        for record in self._records:
            if kind is not None and record.kind != kind:
                continue
            if proto is not None and record.datagram.proto != proto:
                continue
            if link_name is not None and record.link_name != link_name:
                continue
            if node_name is not None and record.node_name != node_name:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def first_delivery_time(
        self, uid: int, node_name: str
    ) -> Optional[float]:
        """Time packet ``uid`` first reached ``node_name``, or None."""
        for record in self._records:
            if (
                record.kind == "rx"
                and record.node_name == node_name
                and _carries_uid(record.datagram, uid)
            ):
                return record.time
        return None


def _carries_uid(datagram: IPDatagram, uid: int) -> bool:
    """True if ``datagram`` is packet ``uid`` or encapsulates it."""
    current = datagram
    while True:
        if current.uid == uid:
            return True
        payload = current.payload
        inner = getattr(payload, "inner", None)
        if isinstance(payload, IPDatagram):
            current = payload
        elif isinstance(inner, IPDatagram):
            current = inner
        else:
            return False
