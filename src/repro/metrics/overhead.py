"""Control and bandwidth overhead (experiment E2).

Flood-and-prune pushes *data* onto links with no receivers behind them
and answers with prune-state control traffic; CBT's explicit joins
touch only the path between a new member and the tree.  This reads
both quantities from a packet trace; the per-type control counts are
the registry's ``cbt.router.<name>.tx.*`` counters (``ControlStats``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import CBT_AUX_PORT, CBT_PORT
from repro.netsim.packet import PROTO_UDP
from repro.netsim.trace import PacketTrace


@dataclass(frozen=True)
class OverheadReport:
    """Message/byte counts attributable to a protocol's operation."""

    control_messages: int
    control_bytes: int
    data_transmissions: int
    data_bytes: int


def trace_overhead(trace: PacketTrace) -> OverheadReport:
    """Split a trace's transmissions into CBT control vs data.

    UDP to the CBT ports counts as control, other UDP as data.
    """
    control_messages = 0
    control_bytes = 0
    data_transmissions = 0
    data_bytes = 0
    for record in trace.transmissions():
        datagram = record.datagram
        size = datagram.size_bytes()
        udp = datagram.payload
        dport = getattr(udp, "dport", None)
        if datagram.proto == PROTO_UDP and dport in (CBT_PORT, CBT_AUX_PORT):
            control_messages += 1
            control_bytes += size
        elif datagram.proto == PROTO_UDP:
            data_transmissions += 1
            data_bytes += size
    return OverheadReport(
        control_messages=control_messages,
        control_bytes=control_bytes,
        data_transmissions=data_transmissions,
        data_bytes=data_bytes,
    )
