"""Packet-level latency extraction from traces.

Cross-validates the static delay model (E4) against what the packet
simulator actually measures: first-transmission to first-delivery
times per packet per receiver.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.trace import PacketTrace, _carries_uid


def first_tx_time(trace: PacketTrace, uid: int) -> Optional[float]:
    """When packet ``uid`` (or an encapsulation of it) first hit a link."""
    for record in trace:
        if record.kind == "tx" and _carries_uid(record.datagram, uid):
            return record.time
    return None


def delivery_latency(trace: PacketTrace, uid: int, node_name: str) -> Optional[float]:
    """First-delivery latency of ``uid`` at ``node_name`` (None if lost)."""
    start = first_tx_time(trace, uid)
    if start is None:
        return None
    arrival = trace.first_delivery_time(uid, node_name)
    if arrival is None:
        return None
    return arrival - start
