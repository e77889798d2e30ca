"""Protocol event timelines and control-message censuses."""

from __future__ import annotations

from typing import List, Optional

from repro.harness.formatting import format_table
from repro.netsim.address import IPv4Address

#: Lines a timeline prints before it notes how many events it left out.
MAX_LINES = 200


def event_timeline(
    domain,
    group: Optional[IPv4Address] = None,
    kinds: Optional[set] = None,
) -> str:
    """Chronological merge of every router's protocol events.

    Filter by ``group`` and/or event ``kinds``; long timelines are
    truncated to :data:`MAX_LINES` lines with a trailing note.
    """
    merged = []
    # The trace bus carries every router's ProtocolEvents (each tagged
    # with its emitting router), already in publish order.
    names = set(domain.protocols)
    for event in domain.network.scheduler.telemetry.bus.records("protocol"):
        if event.router not in names:
            continue
        if group is not None and event.group != group:
            continue
        if kinds is not None and event.kind not in kinds:
            continue
        merged.append((event.time, event.router, event))
    merged.sort(key=lambda item: (item[0], item[1]))
    lines: List[str] = []
    for time, name, event in merged[:MAX_LINES]:
        detail = f"  {event.detail}" if event.detail else ""
        lines.append(f"t={time:8.3f}s  {name:8s} {event.kind}{detail}")
    if len(merged) > MAX_LINES:
        lines.append(f"... {len(merged) - MAX_LINES} more events")
    if not lines:
        lines.append("(no events)")
    return "\n".join(lines)


def control_census(domain) -> str:
    """Per-router table of control messages sent, by type, HELLOs left
    out."""
    types: List[str] = sorted(
        {
            name
            for protocol in domain.protocols.values()
            for name in protocol.stats.sent
            if name != "HELLO"
        }
    )
    rows = []
    totals = [0] * len(types)
    for name in sorted(domain.protocols):
        stats = domain.protocols[name].stats
        counts = [stats.sent.get(t, 0) for t in types]
        if any(counts):
            rows.append([name] + counts)
            totals = [a + b for a, b in zip(totals, counts)]
    rows.append(["TOTAL"] + totals)
    return format_table(
        ["router"] + [t.lower() for t in types],
        rows,
        title="control messages sent",
    )
