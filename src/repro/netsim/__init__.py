"""Discrete-event network simulator substrate.

This package provides the network the CBT protocol runs on: a
deterministic discrete-event scheduler, IPv4-addressed interfaces,
multi-access subnets and point-to-point links, an IP/UDP datagram
model, and a trace facility used by tests and benchmarks.

The simulator is intentionally small and deterministic: events with
equal timestamps fire in FIFO order, and all randomness lives in the
workload generators, never in the engine.
"""

from repro.netsim.address import (
    ALL_CBT_ROUTERS,
    ALL_ROUTERS,
    ALL_SYSTEMS,
    AddressAllocator,
    is_multicast,
)
from repro.netsim.engine import Scheduler, Timer
from repro.netsim.faults import (
    FaultSchedule,
    JitterBurst,
    LinkFlap,
    LossBurst,
    NodeOutage,
    Partition,
    SeededJitter,
    SeededLoss,
)
from repro.netsim.link import Link, PointToPointLink, Subnet
from repro.netsim.nic import Interface
from repro.netsim.node import Node
from repro.netsim.packet import (
    PROTO_CBT,
    PROTO_IGMP,
    PROTO_IPIP,
    PROTO_UDP,
    IPDatagram,
    UDPDatagram,
)
from repro.netsim.trace import PacketTrace, TraceRecord

__all__ = [
    "ALL_CBT_ROUTERS",
    "ALL_ROUTERS",
    "ALL_SYSTEMS",
    "AddressAllocator",
    "FaultSchedule",
    "IPDatagram",
    "Interface",
    "JitterBurst",
    "Link",
    "LinkFlap",
    "LossBurst",
    "NodeOutage",
    "Partition",
    "SeededJitter",
    "SeededLoss",
    "Node",
    "PROTO_CBT",
    "PROTO_IGMP",
    "PROTO_IPIP",
    "PROTO_UDP",
    "PacketTrace",
    "PointToPointLink",
    "Scheduler",
    "Subnet",
    "Timer",
    "TraceRecord",
    "UDPDatagram",
    "is_multicast",
]
