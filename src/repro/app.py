"""Application layer: multicast senders and receivers on simulated hosts.

The protocol tests mostly poke raw datagrams; examples and end-to-end
experiments want something closer to a real application:

* :class:`MulticastSender` — periodic or scripted transmission with
  sequence numbers;
* :class:`MulticastReceiver` — joins via IGMP, tracks received
  sequence numbers per sender, and reports loss / duplicates /
  reordering and per-packet latency.

Payloads carry ``(stream_id, sequence, sent_at)`` so receivers can
compute everything locally — no global bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.igmp.host import IGMPHostAgent
from repro.netsim.address import IPv4Address
from repro.netsim.engine import PeriodicTimer
from repro.netsim.packet import IPDatagram, PROTO_UDP, UDPDatagram
from repro.routing.table import Host

#: UDP port conferencing payloads travel on.
APP_PORT = 5004  # RTP-ish


@dataclass(frozen=True)
class AppPayload:
    """What a sender puts on the wire."""

    stream_id: str
    sequence: int
    sent_at: float
    size: int = 512

    def size_bytes(self) -> int:
        return self.size


class MulticastSender:
    """Transmits sequenced payloads to a group from one host."""

    def __init__(
        self,
        host: Host,
        group: IPv4Address,
        stream_id: Optional[str] = None,
        payload_size: int = 512,
        ttl: int = 64,
    ) -> None:
        self.host = host
        self.group = group
        self.stream_id = stream_id if stream_id is not None else host.name
        self.payload_size = payload_size
        self.ttl = ttl
        self.sequence = 0
        self._ticker: Optional[PeriodicTimer] = None
        host.scheduler.register(self)

    def send(self, count: int = 1) -> List[int]:
        """Send ``count`` packets now; returns their sequence numbers."""
        sequences = []
        for _ in range(count):
            self._transmit()
            sequences.append(self.sequence - 1)
        return sequences

    def start_stream(self, interval: float) -> None:
        """Transmit periodically until :meth:`stop_stream`."""
        if self._ticker is not None:
            self._ticker.stop()
        self._ticker = PeriodicTimer(
            self.host.scheduler, interval, self._transmit
        )
        self._ticker.start(immediately=True)

    def stop_stream(self) -> None:
        if self._ticker is not None:
            self._ticker.stop()
            self._ticker = None

    def _transmit(self) -> None:
        payload = AppPayload(
            stream_id=self.stream_id,
            sequence=self.sequence,
            sent_at=self.host.scheduler.now,
            size=self.payload_size,
        )
        self.sequence += 1
        self.host.originate(
            IPDatagram(
                src=self.host.interface.address,
                dst=self.group,
                proto=PROTO_UDP,
                payload=UDPDatagram(
                    sport=APP_PORT, dport=APP_PORT, payload=payload
                ),
                ttl=self.ttl,
            )
        )


@dataclass
class StreamStats:
    """Per-sender reception statistics at one receiver."""

    received: int = 0
    duplicates: int = 0
    reordered: int = 0
    latencies: List[float] = field(default_factory=list)
    _seen: set = field(default_factory=set)
    _highest: int = -1

    def record(self, sequence: int, latency: float) -> None:
        if sequence in self._seen:
            self.duplicates += 1
            return
        self._seen.add(sequence)
        self.received += 1
        self.latencies.append(latency)
        if sequence < self._highest:
            self.reordered += 1
        self._highest = max(self._highest, sequence)

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def max_latency(self) -> float:
        return max(self.latencies) if self.latencies else 0.0


class MulticastReceiver:
    """Joins a group and accounts every payload it hears."""

    def __init__(
        self,
        host: Host,
        agent: IGMPHostAgent,
        group: IPv4Address,
    ) -> None:
        self.host = host
        self.agent = agent
        self.group = group
        self.streams: Dict[str, StreamStats] = {}
        # Chain behind any existing UDP handler so several receivers
        # (different groups) can coexist on one host.
        self._next = host._handlers.get(PROTO_UDP)
        host.register_handler(PROTO_UDP, self)

    def join(self, cores: Optional[Sequence[IPv4Address]] = None) -> None:
        self.agent.join(self.group, cores=cores)

    def leave(self) -> None:
        self.agent.leave(self.group)

    def handle(self, node, interface, datagram: IPDatagram) -> None:
        if datagram.dst != self.group:
            if self._next is not None:
                self._next(node, interface, datagram)
            return
        udp = datagram.payload
        if not isinstance(udp, UDPDatagram) or udp.dport != APP_PORT:
            return
        payload = udp.payload
        if not isinstance(payload, AppPayload):
            return
        stats = self.streams.setdefault(payload.stream_id, StreamStats())
        stats.record(
            payload.sequence, self.host.scheduler.now - payload.sent_at
        )

    def stats_for(self, stream_id: str) -> StreamStats:
        return self.streams.setdefault(stream_id, StreamStats())
