"""The draft-02 join procedure ("legacy mode").

The June-1995 (-02) draft joined groups through an explicit
host-driven handshake that the November-1995 (-03) draft eliminated —
the authors' note counts "six message types eliminated from the
previous version" and credits the new querier-based DR election with
keeping "join latency to a minimum".  Implementing the old procedure
lets benchmark E18 reproduce that self-comparison.

The -02 flow (its §2.2):

1. a group-initiating host unicasts CORE_NOTIFICATION to each elected
   core; each replies CORE_NOTIFICATION_ACK, and non-primary cores
   eagerly join the primary (the core tree is built up front, not on
   demand);
2. a joining host multicasts DR_SOLICITATION (TTL 1, all-CBT-routers)
   naming the core it wants joined;
3. each candidate router (one whose path to the core leaves the LAN)
   multicasts DR_ADV_NOTIFICATION as a tie-breaker; the
   lowest-addressed notifier wins;
4. the winner multicasts DR_ADVERTISEMENT (all-systems) after a
   configurable delay ("ideally less than one second");
5. the host unicasts TAG_REPORT to the advertised DR, which joins the
   tree (JOIN_REQUEST/ACK as usual) and finally multicasts
   HOST_JOIN_ACK so the host knows it may send.

The messages carry no wire format in the -02 text beyond the generic
control header, so they are modelled as records on the auxiliary
UDP port.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.constants import CBT_AUX_PORT, JoinSubcode
from repro.netsim.address import ALL_CBT_ROUTERS, ALL_SYSTEMS, IPv4Address
from repro.netsim.nic import Interface
from repro.netsim.packet import IPDatagram, PROTO_UDP, Record, make_udp

#: Tie-break window: how long a candidate collects rival notifications.
ADV_NOTIFICATION_WINDOW = 0.1

#: Delay between winning the tie-break and advertising ("ideally less
#: than one second" per the -02 draft).
ADVERTISEMENT_DELAY = 0.5

#: Host retry interval for unanswered solicitations.
SOLICIT_RETRY = 2.0


class CoreNotification(Record):
    group: IPv4Address
    cores: Tuple[IPv4Address, ...]

    def size_bytes(self) -> int:
        return 56


class CoreNotificationAck(Record):
    group: IPv4Address
    core: IPv4Address

    def size_bytes(self) -> int:
        return 56


class DRSolicitation(Record):
    group: IPv4Address
    core: IPv4Address

    def size_bytes(self) -> int:
        return 56


class DRAdvNotification(Record):
    group: IPv4Address
    core: IPv4Address

    def size_bytes(self) -> int:
        return 56


class DRAdvertisement(Record):
    group: IPv4Address
    dr_address: IPv4Address

    def size_bytes(self) -> int:
        return 56


class TagReport(Record):
    group: IPv4Address
    core: IPv4Address
    cores: Tuple[IPv4Address, ...]

    def size_bytes(self) -> int:
        return 56


class HostJoinAck(Record):
    group: IPv4Address
    core: IPv4Address

    def size_bytes(self) -> int:
        return 56


LEGACY_TYPES = (
    CoreNotification,
    CoreNotificationAck,
    DRSolicitation,
    DRAdvNotification,
    DRAdvertisement,
    TagReport,
    HostJoinAck,
)


class LegacyDRExtension:
    """Router-side -02 behaviour, layered onto a CBTProtocol.

    Handles solicitations (candidate check + tie-break +
    advertisement), tag reports (join + HOST_JOIN_ACK), and core
    notifications (ack + eager core-tree construction).
    """

    def __init__(self, protocol) -> None:
        self.protocol = protocol
        self.router = protocol.router
        #: (group, vif) -> election bookkeeping
        self._elections: Dict[Tuple[IPv4Address, int], Dict] = {}
        #: groups awaiting HOST_JOIN_ACK emission, keyed by group -> vif
        self._pending_tags: Dict[IPv4Address, int] = {}
        self.messages_sent = 0
        self._saved_handler = protocol._handle_udp
        protocol.router.register_handler(PROTO_UDP, self._handle_udp)
        protocol.router.scheduler.register(self)

    # -- dispatch ----------------------------------------------------------

    def _handle_udp(self, node, interface: Interface, datagram: IPDatagram) -> None:
        udp = datagram.payload
        message = getattr(udp, "payload", None)
        if isinstance(message, LEGACY_TYPES):
            handler = {
                CoreNotification: self._recv_core_notification,
                DRSolicitation: self._recv_solicitation,
                DRAdvNotification: self._recv_adv_notification,
                TagReport: self._recv_tag_report,
            }.get(type(message))
            if handler is not None:
                handler(interface, datagram.src, message)
            return
        self._saved_handler(node, interface, datagram)
        self._maybe_emit_host_join_ack()

    def _send(
        self,
        interface: Optional[Interface],
        destination: IPv4Address,
        message,
        ttl: int = 64,
    ) -> None:
        self.messages_sent += 1
        if interface is not None:
            interface.send(
                make_udp(
                    src=interface.address,
                    dst=destination,
                    sport=CBT_AUX_PORT,
                    dport=CBT_AUX_PORT,
                    payload=message,
                    ttl=ttl,
                )
            )
        else:
            self.router.originate(
                make_udp(
                    src=self.protocol.address,
                    dst=destination,
                    sport=CBT_AUX_PORT,
                    dport=CBT_AUX_PORT,
                    payload=message,
                )
            )

    # -- core notifications (-02 §2.2) -----------------------------------------

    def _recv_core_notification(
        self, interface: Interface, src: IPv4Address, message: CoreNotification
    ) -> None:
        if not any(self.router.owns_address(c) for c in message.cores):
            return
        self.protocol.learn_cores(message.group, message.cores)
        self._send(None, src, CoreNotificationAck(
            group=message.group, core=self.protocol.address
        ))
        primary = message.cores[0]
        if self.router.owns_address(primary):
            # The primary simply roots the (eventual) tree.
            self.protocol.fib.get_or_create(message.group)
            return
        # Non-primary cores join the primary immediately (eager core
        # tree — the -03 draft made this on-demand instead).
        if message.group not in self.protocol.fib:
            self.protocol.fib.get_or_create(message.group)
            self.protocol._originate_join(
                message.group,
                cores=message.cores,
                target_core=primary,
                subcode=JoinSubcode.REJOIN_ACTIVE,
                origin=self.protocol.address,
            )

    # -- DR election (-02 §2.2) ---------------------------------------------------

    def _recv_solicitation(
        self, interface: Interface, src: IPv4Address, message: DRSolicitation
    ) -> None:
        if not self._is_candidate(interface, message.core):
            return
        key = (message.group, interface.vif)
        if key in self._elections and self._elections[key].get("settled"):
            # Already elected: re-advertise immediately.
            if self._elections[key].get("winner_is_me"):
                self._advertise(interface, message.group)
            return
        election = self._elections.setdefault(
            key, {"lowest": interface.address, "settled": False}
        )
        self._send(
            interface,
            ALL_CBT_ROUTERS,
            DRAdvNotification(group=message.group, core=message.core),
            ttl=1,
        )
        self.router.scheduler.call_later(
            ADV_NOTIFICATION_WINDOW, self._close_election, interface, message.group
        )

    def _recv_adv_notification(
        self, interface: Interface, src: IPv4Address, message: DRAdvNotification
    ) -> None:
        key = (message.group, interface.vif)
        election = self._elections.setdefault(
            key, {"lowest": interface.address, "settled": False}
        )
        if src < election["lowest"]:
            election["lowest"] = src

    def _close_election(self, interface: Interface, group: IPv4Address) -> None:
        key = (group, interface.vif)
        election = self._elections.get(key)
        if election is None or election.get("settled"):
            return
        election["settled"] = True
        election["winner_is_me"] = election["lowest"] == interface.address
        if election["winner_is_me"]:
            self.router.scheduler.call_later(
                ADVERTISEMENT_DELAY, self._advertise, interface, group
            )

    def _advertise(self, interface: Interface, group: IPv4Address) -> None:
        self._send(
            interface,
            ALL_SYSTEMS,
            DRAdvertisement(group=group, dr_address=interface.address),
            ttl=1,
        )

    # -- tag reports and the host join ack ----------------------------------------------

    def _recv_tag_report(
        self, interface: Interface, src: IPv4Address, message: TagReport
    ) -> None:
        group = message.group
        self.protocol.learn_cores(group, message.cores)
        if self.protocol.is_on_tree(group):
            self._emit_host_join_ack(interface.vif, group)
            return
        self._pending_tags[group] = interface.vif
        if group in self.protocol.pending:
            return
        self.protocol._originate_join(
            group,
            cores=message.cores,
            target_core=message.core,
            subcode=JoinSubcode.ACTIVE_JOIN,
            origin=interface.address,
        )

    def _maybe_emit_host_join_ack(self) -> None:
        for group, vif in list(self._pending_tags.items()):
            if self.protocol.is_on_tree(group) or any(
                event.group == group for event in self.protocol.events_of("proxied")
            ):
                self._emit_host_join_ack(vif, group)

    def _emit_host_join_ack(self, vif: int, group: IPv4Address) -> None:
        self._pending_tags.pop(group, None)
        cores = self.protocol.cores_for(group)
        core = cores[0] if cores else IPv4Address("0.0.0.0")
        interface = self.router.interface_for_vif(vif)
        self._send(
            interface, ALL_SYSTEMS, HostJoinAck(group=group, core=core), ttl=1
        )

    def _is_candidate(self, interface: Interface, core: IPv4Address) -> bool:
        """-02 rule: candidate iff the path to the core leaves the LAN
        through a *different* interface than the solicitation arrived on."""
        route = self.router.best_route(core)
        if route is None:
            return False
        if self.router.owns_address(core):
            return True
        return route.interface.vif != interface.vif or route.next_hop is None


class LegacyHostAgent:
    """Host-side -02 join state machine.

    ``igmp_agent`` (an :class:`repro.igmp.host.IGMPHostAgent`) keeps
    plain membership reports flowing — the -02 draft ran classic IGMP
    alongside its DR handshake; without membership the DR's leaf-quit
    logic would correctly tear the branch back down.
    """

    def __init__(self, host, igmp_agent=None) -> None:
        self.host = host
        self.igmp_agent = igmp_agent
        self._states: Dict[IPv4Address, Dict] = {}
        self.messages_sent = 0
        self._saved = host._handlers.get(PROTO_UDP)
        host.register_handler(PROTO_UDP, self)
        host.scheduler.register(self)

    # -- API --------------------------------------------------------------------

    def join(
        self,
        group: IPv4Address,
        cores: Sequence[IPv4Address],
        initiator: bool = False,
    ) -> None:
        """Run the -02 join handshake; track latency via ``state``."""
        cores = tuple(cores)
        state = {
            "cores": cores,
            "phase": "soliciting",
            "started_at": self.host.scheduler.now,
            "completed_at": None,
        }
        self._states[group] = state
        self.host.joined_groups.add(group)
        if self.igmp_agent is not None:
            # Classic membership report only — no IGMPv3 core report
            # existed in the -02 world.
            self.igmp_agent.join(group, cores=None)
        if initiator:
            state["phase"] = "notifying"
            state["acks_needed"] = len(cores)
            for core in cores:
                self._unicast(core, CoreNotification(group=group, cores=cores))
        else:
            self._solicit(group)

    def join_latency(self, group: IPv4Address) -> Optional[float]:
        state = self._states.get(group)
        if state is None or state["completed_at"] is None:
            return None
        return state["completed_at"] - state["started_at"]

    def is_complete(self, group: IPv4Address) -> bool:
        state = self._states.get(group)
        return bool(state and state["completed_at"] is not None)

    # -- internals --------------------------------------------------------------------

    def _solicit(self, group: IPv4Address) -> None:
        state = self._states.get(group)
        if state is None or state["completed_at"] is not None:
            return
        state["phase"] = "soliciting"
        self._multicast(
            ALL_CBT_ROUTERS,
            DRSolicitation(group=group, core=state["cores"][0]),
        )
        self.host.scheduler.call_later(SOLICIT_RETRY, self._retry_solicit, group)

    def _retry_solicit(self, group: IPv4Address) -> None:
        state = self._states.get(group)
        if state is not None and state["phase"] == "soliciting":
            self._solicit(group)

    def handle(self, node, interface, datagram: IPDatagram) -> None:
        udp = datagram.payload
        message = getattr(udp, "payload", None)
        if isinstance(message, CoreNotificationAck):
            self._recv_core_ack(message)
        elif isinstance(message, DRAdvertisement):
            self._recv_advertisement(message)
        elif isinstance(message, HostJoinAck):
            self._recv_host_join_ack(message)
        elif self._saved is not None:
            self._saved(node, interface, datagram)

    def _recv_core_ack(self, message: CoreNotificationAck) -> None:
        state = self._states.get(message.group)
        if state is None or state["phase"] != "notifying":
            return
        state["acks_needed"] -= 1
        # "Provided at least one ACK is received a host will not be
        # prevented from joining" — proceed on the first ack.
        self._solicit(message.group)

    def _recv_advertisement(self, message: DRAdvertisement) -> None:
        state = self._states.get(message.group)
        if state is None or state["phase"] not in ("soliciting",):
            return
        state["phase"] = "tagged"
        self._unicast(
            message.dr_address,
            TagReport(
                group=message.group,
                core=state["cores"][0],
                cores=state["cores"],
            ),
        )

    def _recv_host_join_ack(self, message: HostJoinAck) -> None:
        state = self._states.get(message.group)
        if state is None or state["completed_at"] is not None:
            return
        state["completed_at"] = self.host.scheduler.now
        state["phase"] = "complete"

    def _multicast(self, destination: IPv4Address, message) -> None:
        self.messages_sent += 1
        self.host.originate(
            make_udp(
                src=self.host.interface.address,
                dst=destination,
                sport=CBT_AUX_PORT,
                dport=CBT_AUX_PORT,
                payload=message,
                ttl=1,
            )
        )

    def _unicast(self, destination: IPv4Address, message) -> None:
        self.messages_sent += 1
        self.host.originate(
            make_udp(
                src=self.host.interface.address,
                dst=destination,
                sport=CBT_AUX_PORT,
                dport=CBT_AUX_PORT,
                payload=message,
            )
        )
