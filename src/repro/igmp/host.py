"""Host-side IGMP agent.

Implements the membership behaviour the CBT spec expects of end
systems (§2.2, §2.5): invoking a multicast application sends both an
IGMP membership report and — when the host knows the group's cores —
an IGMPv3 RP/Core-Report, each multicast to the group address itself.
The agent also answers membership queries and sends leaves to the
all-routers group.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.netsim.address import ALL_ROUTERS, IPv4Address
from repro.netsim.engine import Timer
from repro.netsim.nic import Interface
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_IGMP
from repro.igmp.messages import (
    CoreReport,
    IGMPMessage,
    Leave,
    MembershipQuery,
    MembershipReport,
)

#: Hosts stagger query responses; we derive a deterministic small delay
#: from the host address so traces are reproducible (real IGMP draws a
#: uniform random delay below the advertised maximum).
def _response_delay(address: IPv4Address, max_response_time: float) -> float:
    return (int(address) % 97) / 97.0 * max_response_time


#: A host agent's statistics as registry metrics (under
#: ``igmp.host.<name>.``) -> the :class:`IGMPHostStats` attribute.
_HOST_STATS = (
    ("tx.report", "reports_sent"),
    ("tx.leave", "leaves_sent"),
    ("tx.core_report", "core_reports_sent"),
    ("rx.query", "queries_heard"),
)


class IGMPHostStats:
    """A host agent's protocol-level statistics (see
    docs/OBSERVABILITY.md), read as ``igmp.host.<name>.*``, ``name``
    the host's; apart from the agent, which a closed world empties."""

    __slots__ = ("name", "reports_sent", "leaves_sent", "core_reports_sent", "queries_heard")

    def __init__(self, name: str) -> None:
        self.name = name
        self.reports_sent = self.leaves_sent = self.core_reports_sent = 0
        self.queries_heard = 0


class IGMPHostAgent:
    """Attach to a :class:`repro.routing.table.Host` to manage membership."""

    def __init__(self, host) -> None:
        self.host = host
        host.register_handler(PROTO_IGMP, self)
        host.scheduler.register(self)
        #: group -> ordered core list (None when the host only knows the group)
        self.memberships: Dict[IPv4Address, Optional[Tuple[IPv4Address, ...]]] = {}
        self._pending_responses: Dict[IPv4Address, Timer] = {}
        self.stats = IGMPHostStats(host.name)
        host.scheduler.telemetry.registry.gauge_attrs("igmp.host.", self.stats, _HOST_STATS)

    # -- application API --------------------------------------------------

    def join(
        self,
        group: IPv4Address,
        cores: Optional[Sequence[IPv4Address]] = None,
        target_core: int = 0,
    ) -> None:
        """Join ``group``; sends report + core report (spec §2.5).

        ``cores`` is the ordered candidate core list learnt from the
        external <core, group> advertisement mechanism; the primary
        core is first.
        """
        core_tuple = tuple(cores) if cores else None
        self.memberships[group] = core_tuple
        self.host.joined_groups.add(group)
        if core_tuple:
            self._send(group, CoreReport(group=group, cores=core_tuple, target_core=target_core))
            self.stats.core_reports_sent += 1
        self._send(group, MembershipReport(group=group))
        self.stats.reports_sent += 1

    def leave(self, group: IPv4Address) -> None:
        """Leave ``group``; sends an IGMP leave to 224.0.0.2 (spec §2.7)."""
        if group not in self.memberships:
            return
        del self.memberships[group]
        self.host.joined_groups.discard(group)
        pending = self._pending_responses.pop(group, None)
        if pending is not None:
            pending.cancel()
        self._send(ALL_ROUTERS, Leave(group=group))
        self.stats.leaves_sent += 1

    def is_member(self, group: IPv4Address) -> bool:
        return group in self.memberships

    # -- protocol handling -------------------------------------------------

    def handle(self, node: Node, interface: Interface, datagram: IPDatagram) -> None:
        message = datagram.payload
        if isinstance(message, MembershipQuery):
            self.stats.queries_heard += 1
            self._handle_query(message)

    def _handle_query(self, query: MembershipQuery) -> None:
        groups = (
            list(self.memberships)
            if query.is_general
            else [query.group] if query.group in self.memberships else []
        )
        for group in groups:
            self._schedule_response(group, query.max_response_time)

    def _schedule_response(self, group: IPv4Address, max_response_time: float) -> None:
        if group in self._pending_responses and self._pending_responses[group].pending:
            return  # a response is already queued
        delay = _response_delay(self.host.interface.address, max_response_time)
        self._pending_responses[group] = self.host.scheduler.call_later(
            delay, self._respond, group
        )

    def _respond(self, group: IPv4Address) -> None:
        if group not in self.memberships:
            return  # left while the response was pending
        cores = self.memberships[group]
        if cores:
            # Spec §2.5: core reports are also sent in response to
            # queries, and prior to the membership report.
            self._send(group, CoreReport(group=group, cores=cores))
            self.stats.core_reports_sent += 1
        self._send(group, MembershipReport(group=group))
        self.stats.reports_sent += 1

    def _send(self, destination: IPv4Address, message: IGMPMessage) -> None:
        self.host.originate(
            IPDatagram(
                src=self.host.interface.address,
                dst=destination,
                proto=PROTO_IGMP,
                payload=message,
                ttl=1,
            )
        )
