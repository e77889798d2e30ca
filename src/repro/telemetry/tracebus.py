"""Structured trace bus: typed records, JSONL export.

The bus is the one store of a run's events: every producer publishes
typed records (protocol milestones, membership transitions, fault
injections) and readers filter it — ``CBTProtocol.events_of`` is a
view over its ``protocol`` records, not a copy.  Link-level packet
events are converted on demand from the
:class:`repro.netsim.trace.PacketTrace` (:meth:`PacketEvent.from_trace_record`);
``repro trace`` merges them with the bus by time.  The whole stream
serialises to one stable JSONL schema, ``repro-trace/1``:

* line 1 is a header object ``{"schema": "repro-trace/1"}``;
* every following line is one record: ``{"type": <record type>,
  ...fields...}`` with keys sorted, so output is byte-deterministic;
* parsers ignore unknown fields (and unknown record types), so later
  schema revisions can add fields without breaking old readers.

A stream that cannot be read — a line that is not a JSON object, a
known record type missing a required field or holding a malformed
address, a missing or foreign header — raises :class:`TraceFormatError`
naming the 1-based line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - see _address
    from repro.netsim.address import IPv4Address

#: Schema identifier written to (and required from) JSONL trace files.
TRACE_SCHEMA = "repro-trace/1"

#: msg_type enum member -> label cache for :func:`payload_label`.
_ENUM_NAMES: Dict[Any, str] = {}


def payload_label(datagram: Any) -> str:
    """Short protocol-aware label for a datagram's innermost payload.

    Duck-typed (``msg_type.name`` when present, else the payload class
    name, else ``proto<n>``) so the telemetry layer needs no knowledge
    of the CBT/IGMP message classes.
    """
    payload = datagram.payload
    inner = getattr(payload, "payload", payload)
    msg_type = getattr(inner, "msg_type", None)
    if msg_type is not None:
        # Enum ``.name`` is a descriptor lookup; cache it (hot path).
        name = _ENUM_NAMES.get(msg_type)
        if name is None:
            name = _ENUM_NAMES[msg_type] = msg_type.name
        return name
    type_name = type(inner).__name__
    if type_name not in ("bytes", "NoneType", "str"):
        return type_name
    return f"proto{datagram.proto}"


def _address(value: Any) -> IPv4Address:
    """The address a trace field holds.  Imported here, not at the top:
    ``repro.netsim`` imports this package, never the reverse."""
    from repro.netsim.address import IPv4Address

    return IPv4Address(value)


def _opt_address(value: Any) -> Optional[IPv4Address]:
    return _address(value) if value is not None else None


def _opt_str(value: Optional[IPv4Address]) -> Optional[str]:
    return str(value) if value is not None else None


@dataclass(frozen=True)
class ProtocolEvent:
    """Timestamped protocol milestone (joined, retry, quit, flushed…).

    Field order keeps backwards compatibility with the original
    ``repro.core.router.ProtocolEvent``; ``router`` names the emitting
    router so bus-wide streams stay attributable.
    """

    time: float
    kind: str
    group: IPv4Address
    detail: str = ""
    router: str = ""

    RECORD_TYPE = "protocol"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "router": self.router,
            "kind": self.kind,
            "group": _opt_str(self.group),
            "detail": self.detail,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ProtocolEvent":
        return cls(
            time=payload["time"],
            kind=payload["kind"],
            group=_opt_address(payload.get("group")),
            detail=payload.get("detail", ""),
            router=payload.get("router", ""),
        )


@dataclass(frozen=True)
class PacketEvent:
    """One link-level event (tx / rx / drop), flattened for export."""

    time: float
    kind: str
    link: str
    node: str
    label: str
    src: IPv4Address
    dst: IPv4Address
    proto: int
    size: int
    uid: int
    note: str = ""

    RECORD_TYPE = "packet"

    @classmethod
    def from_trace_record(cls, record: Any) -> "PacketEvent":
        """Convert a :class:`repro.netsim.trace.TraceRecord`."""
        datagram = record.datagram
        return cls(
            time=record.time,
            kind=record.kind,
            link=record.link_name,
            node=record.node_name,
            label=payload_label(datagram),
            src=datagram.src,
            dst=datagram.dst,
            proto=datagram.proto,
            size=datagram.size_bytes(),
            uid=datagram.uid,
            note=record.note,
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "kind": self.kind,
            "link": self.link,
            "node": self.node,
            "label": self.label,
            "src": str(self.src),
            "dst": str(self.dst),
            "proto": self.proto,
            "size": self.size,
            "uid": self.uid,
            "note": self.note,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PacketEvent":
        return cls(
            time=payload["time"],
            kind=payload["kind"],
            link=payload["link"],
            node=payload["node"],
            label=payload["label"],
            src=_address(payload["src"]),
            dst=_address(payload["dst"]),
            proto=payload["proto"],
            size=payload["size"],
            uid=payload.get("uid", 0),
            note=payload.get("note", ""),
        )


@dataclass(frozen=True)
class MembershipEvent:
    """IGMP membership transition on one router interface."""

    time: float
    router: str
    vif: int
    group: IPv4Address
    present: bool

    RECORD_TYPE = "membership"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "router": self.router,
            "vif": self.vif,
            "group": _opt_str(self.group),
            "present": self.present,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MembershipEvent":
        return cls(
            time=payload["time"],
            router=payload["router"],
            vif=payload["vif"],
            group=_opt_address(payload.get("group")),
            present=payload["present"],
        )


@dataclass(frozen=True)
class FaultEvent:
    """A fault-injection action firing (link flap, node outage…)."""

    time: float
    description: str

    RECORD_TYPE = "fault"

    def to_payload(self) -> Dict[str, Any]:
        return {"time": self.time, "description": self.description}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FaultEvent":
        return cls(time=payload["time"], description=payload["description"])


TraceRecordType = Union[ProtocolEvent, PacketEvent, MembershipEvent, FaultEvent]

#: type name -> record class; the JSONL parser dispatches through this.
RECORD_TYPES: Dict[str, type] = {
    cls.RECORD_TYPE: cls
    for cls in (ProtocolEvent, PacketEvent, MembershipEvent, FaultEvent)
}


class TraceBus:
    """The run's typed trace records, in publication order."""

    def __init__(self) -> None:
        self._records: List[TraceRecordType] = []

    def publish(self, record: TraceRecordType) -> None:
        self._records.append(record)

    def records(self, record_type: Optional[str] = None) -> List[TraceRecordType]:
        if record_type is None:
            return list(self._records)
        return [r for r in self._records if r.RECORD_TYPE == record_type]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecordType]:
        return iter(self._records)


# -- JSONL serialisation -------------------------------------------------


def record_to_json(record: TraceRecordType) -> str:
    """One record as a canonical (sorted-keys, compact) JSON line."""
    payload = {"type": record.RECORD_TYPE}
    payload.update(record.to_payload())
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TraceFormatError(ValueError):
    """A ``repro-trace/1`` line or stream that cannot be read."""


def _json_object(line: str) -> Dict[str, Any]:
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise TraceFormatError(f"not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise TraceFormatError(
            f"expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def record_from_json(line: str) -> Optional[TraceRecordType]:
    """Parse one JSONL line; None for unknown record types (forward
    compatibility).  Unknown fields inside known types are ignored;
    anything else unreadable raises :class:`TraceFormatError`."""
    payload = _json_object(line)
    kind = payload.get("type")
    cls = RECORD_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        return None
    try:
        return cls.from_payload(payload)
    except KeyError as exc:
        raise TraceFormatError(
            f"{kind} record is missing field {exc.args[0]!r}"
        ) from None
    except ValueError as exc:
        raise TraceFormatError(f"{kind} record: {exc}") from None


def dump_jsonl(records: Iterable[TraceRecordType], fh: IO[str]) -> int:
    """Write the schema header plus one line per record; returns the
    number of records written."""
    fh.write(json.dumps({"schema": TRACE_SCHEMA}) + "\n")
    count = 0
    for record in records:
        fh.write(record_to_json(record) + "\n")
        count += 1
    return count


def dumps_jsonl(records: Iterable[TraceRecordType]) -> str:
    import io

    buffer = io.StringIO()
    dump_jsonl(records, buffer)
    return buffer.getvalue()


def load_jsonl(fh: IO[str]) -> List[TraceRecordType]:
    """Parse a ``repro-trace/1`` stream; raises
    :class:`TraceFormatError` (a ``ValueError``) naming the 1-based
    line on a missing or mismatched schema header or an unreadable
    record."""
    out: List[TraceRecordType] = []
    header_seen = False
    for lineno, line in enumerate(fh.read().splitlines(), 1):
        if not line.strip():
            continue
        try:
            if header_seen:
                record = record_from_json(line)
            else:
                schema = _json_object(line).get("schema")
                if schema != TRACE_SCHEMA:
                    raise TraceFormatError(
                        f"unsupported trace schema {schema!r}; want {TRACE_SCHEMA!r}"
                    )
                header_seen, record = True, None
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
        if record is not None:
            out.append(record)
    if not header_seen:
        raise TraceFormatError("empty trace stream (missing schema header)")
    return out


def loads_jsonl(text: str) -> List[TraceRecordType]:
    import io

    return load_jsonl(io.StringIO(text))
