"""Router-side IGMP: querier election and the membership database.

The CBT spec leans on two IGMP behaviours (§2.3, §2.7):

* **Querier election** — at start-up a router assumes it is the only
  multicast router on each subnet and sends a few queries in short
  succession; the lowest-addressed router wins querier duty.  In CBT
  the querier *is* the default designated router (D-DR), so this
  election carries no extra protocol overhead.  A subnet here is a
  multi-access link: a router-to-router point-to-point link has no
  host to answer a query and no D-DR to elect, so it gets none.
* **Leave processing** — a leave triggers a group-specific query; if
  no member responds within the last-member interval, membership on
  the subnet expires, which is what ultimately lets a CBT router send
  a QUIT_REQUEST upstream.

Consumers (the CBT protocol, DVMRP baseline) subscribe to membership
changes and core reports via listener callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.address import ALL_SYSTEMS, IPv4Address
from repro.netsim.engine import PeriodicTimer, Timer
from repro.netsim.nic import Interface
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_IGMP
from repro.igmp.messages import (
    CoreReport,
    Leave,
    MembershipQuery,
    MembershipReport,
)
from repro.telemetry import MembershipEvent


#: RFC 2236 Robustness Variable: the query intervals a membership or
#: another querier outlives.
ROBUSTNESS_VARIABLE = 2

#: RFC 2236 Startup Query Count: general queries a querier sends at
#: start-up, ``startup_query_interval`` apart.
STARTUP_QUERY_COUNT = 3

#: RFC 2236 Last Member Query Count: group-specific queries the querier
#: sends on a Leave, ``last_member_query_interval`` apart.
LAST_MEMBER_QUERY_COUNT = 2


@dataclass(frozen=True)
class IGMPConfig:
    """Tunable IGMP timing (defaults follow IGMPv2 conventions)."""

    query_interval: float = 125.0
    query_response_interval: float = 10.0
    startup_query_interval: float = 1.0
    last_member_query_interval: float = 1.0

    @property
    def membership_timeout(self) -> float:
        return ROBUSTNESS_VARIABLE * self.query_interval + self.query_response_interval

    @property
    def other_querier_timeout(self) -> float:
        return (
            ROBUSTNESS_VARIABLE * self.query_interval
            + self.query_response_interval / 2.0
        )


class _InterfaceState:
    """Per-interface querier and membership state."""

    def __init__(self) -> None:
        self.querier = True
        self.querier_address: Optional[IPv4Address] = None
        self.other_querier_timer: Optional[Timer] = None
        # group -> last report simulation time
        self.members: Dict[IPv4Address, float] = {}
        # group -> expiry timer
        self.expiry_timers: Dict[IPv4Address, Timer] = {}
        self.query_timer: Optional[PeriodicTimer] = None


class MembershipDatabase:
    """Read-only view of which groups are present on which interfaces."""

    def __init__(self) -> None:
        self._by_interface: Dict[int, set] = {}
        #: group -> vifs with presence, in ``_by_interface`` order;
        #: rebuilt for one group by each write, read per data packet.
        self._by_group: Dict[IPv4Address, Tuple[int, ...]] = {}

    def groups_on(self, interface: Interface) -> set:
        return set(self._by_interface.get(interface.vif, set()))

    def has_members(self, interface: Interface, group: IPv4Address) -> bool:
        return group in self._by_interface.get(interface.vif, set())

    def interfaces_with(self, group: IPv4Address) -> Tuple[int, ...]:
        return self._by_group.get(group, ())

    def _index(self, group: IPv4Address) -> None:
        self._by_group[group] = tuple(
            vif for vif, groups in self._by_interface.items() if group in groups
        )

    def _add(self, interface: Interface, group: IPv4Address) -> bool:
        groups = self._by_interface.setdefault(interface.vif, set())
        if group in groups:
            return False
        groups.add(group)
        self._index(group)
        return True

    def _remove(self, interface: Interface, group: IPv4Address) -> bool:
        groups = self._by_interface.get(interface.vif, set())
        if group not in groups:
            return False
        groups.discard(group)
        self._index(group)
        return True


MembershipListener = Callable[[Interface, IPv4Address, bool], None]
CoreReportListener = Callable[[Interface, CoreReport], None]

#: An agent's statistics as registry metrics (under
#: ``igmp.router.<name>.``) -> the :class:`IGMPStats` attribute.
_AGENT_STATS = (
    ("tx.query", "queries_sent"),
    ("rx.query", "queries_heard"),
    ("rx.report", "reports_heard"),
    ("rx.leave", "leaves_heard"),
    ("rx.core_report", "core_reports_heard"),
    ("membership_gains", "membership_gains"),
    ("membership_losses", "membership_losses"),
    ("querier_transitions", "querier_transitions"),
)


class IGMPStats:
    """A router agent's protocol-level statistics (see
    docs/OBSERVABILITY.md): tx/rx per IGMP message kind plus
    membership and querier transitions, registered as the family
    ``igmp.router.<name>.``.  Apart from the agent, which a closed
    world empties, so its registry reads them still."""

    __slots__ = (
        "queries_sent",
        "queries_heard",
        "reports_heard",
        "leaves_heard",
        "core_reports_heard",
        "membership_gains",
        "membership_losses",
        "querier_transitions",
    )

    def __init__(self) -> None:
        self.queries_sent = self.queries_heard = self.reports_heard = 0
        self.leaves_heard = self.core_reports_heard = 0
        self.membership_gains = self.membership_losses = 0
        self.querier_transitions = 0


class IGMPRouterAgent:
    """IGMP speaker for a router: one agent covers all its interfaces."""

    def __init__(self, router, config: Optional[IGMPConfig] = None) -> None:
        self.router = router
        self.config = config if config is not None else IGMPConfig()
        self.database = MembershipDatabase()
        self._states: Dict[int, _InterfaceState] = {}
        self._membership_listeners: List[MembershipListener] = []
        self._core_report_listeners: List[CoreReportListener] = []
        self._started = False
        self.telemetry = router.scheduler.telemetry
        self.stats = IGMPStats()
        self.telemetry.registry.gauge_attrs(
            f"igmp.router.{router.name}.", self.stats, _AGENT_STATS
        )
        router.register_handler(PROTO_IGMP, self)
        router.scheduler.register(self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin querier duty (spec §2.3 start-up) on every interface
        whose link is multi-access: hosts live on LANs only, and the
        one reader of querier state, the D-DR election
        (:mod:`repro.core.dr`), is a LAN question too.  A
        router-to-router point-to-point link gets no query.  A second
        call does nothing."""
        if self._started:
            return
        self._started = True
        for interface in self.router.interfaces:
            if not interface.link.multi_access:
                continue
            state = self._state_for(interface)
            for i in range(STARTUP_QUERY_COUNT):
                self.router.scheduler.call_later(
                    i * self.config.startup_query_interval,
                    self._send_query,
                    interface,
                    None,
                )
            ticker = PeriodicTimer(
                self.router.scheduler,
                self.config.query_interval,
                self._periodic_query,
                interface,
            )
            state.query_timer = ticker
            ticker.start()

    def _periodic_query(self, interface: Interface) -> None:
        if self._state_for(interface).querier:
            self._send_query(interface, group=None)

    # -- subscriptions ---------------------------------------------------------

    def on_membership_change(self, listener: MembershipListener) -> None:
        """``listener(interface, group, present)`` on every transition."""
        self._membership_listeners.append(listener)

    def on_core_report(self, listener: CoreReportListener) -> None:
        """``listener(interface, core_report)`` for each RP/Core-Report."""
        self._core_report_listeners.append(listener)

    # -- queries ------------------------------------------------------------------

    def is_querier(self, interface: Interface) -> bool:
        return self._state_for(interface).querier

    def querier_address(self, interface: Interface) -> IPv4Address:
        state = self._state_for(interface)
        if state.querier or state.querier_address is None:
            return interface.address
        return state.querier_address

    def any_member_subnet(self, group: IPv4Address) -> bool:
        """True if any directly connected subnet has ``group`` presence."""
        return bool(self.database.interfaces_with(group))

    # -- message handling -----------------------------------------------------------

    def handle(self, node: Node, interface: Interface, datagram: IPDatagram) -> None:
        message = datagram.payload
        kind = type(message)
        if kind is MembershipQuery:
            self.stats.queries_heard += 1
            self._handle_query(interface, datagram.src)
        elif kind is MembershipReport:
            self.stats.reports_heard += 1
            self._handle_report(interface, message.group)
        elif kind is Leave:
            self.stats.leaves_heard += 1
            self._handle_leave(interface, message.group)
        elif kind is CoreReport:
            self.stats.core_reports_heard += 1
            self._handle_core_report(interface, message)

    def _handle_query(self, interface: Interface, source: IPv4Address) -> None:
        state = self._state_for(interface)
        if source == interface.address:
            return
        if source < interface.address:
            # Lower-addressed querier wins (spec §2.3); never replace a
            # known querier with a higher-addressed one.
            if state.querier:
                self.stats.querier_transitions += 1
            state.querier = False
            if state.querier_address is None or source <= state.querier_address:
                state.querier_address = source
                if state.other_querier_timer is not None:
                    state.other_querier_timer.cancel()
                state.other_querier_timer = self.router.scheduler.call_later(
                    self.config.other_querier_timeout,
                    self._resume_querier,
                    interface,
                )

    def _resume_querier(self, interface: Interface) -> None:
        state = self._state_for(interface)
        if not state.querier:
            self.stats.querier_transitions += 1
        state.querier = True
        state.querier_address = None

    def _handle_report(self, interface: Interface, group: IPv4Address) -> None:
        if not group.is_multicast:
            return
        state = self._state_for(interface)
        state.members[group] = self.router.scheduler.now
        self._restart_expiry(interface, group, self.config.membership_timeout)
        if self.database._add(interface, group):
            self._notify_membership(interface, group, present=True)

    def _handle_leave(self, interface: Interface, group: IPv4Address) -> None:
        # Every router shortens its membership expiry on hearing a
        # leave (it will observe the absence of responses), but only
        # the querier sends the group-specific queries (spec §2.7).
        state = self._state_for(interface)
        if not self.database.has_members(interface, group):
            return
        if state.querier:
            for i in range(LAST_MEMBER_QUERY_COUNT):
                self.router.scheduler.call_later(
                    i * self.config.last_member_query_interval,
                    self._send_query,
                    interface,
                    group,
                )
        timeout = (
            LAST_MEMBER_QUERY_COUNT
            * self.config.last_member_query_interval
            + self.config.query_response_interval
        )
        self._restart_expiry(interface, group, timeout)

    def _handle_core_report(self, interface: Interface, report: CoreReport) -> None:
        for listener in self._core_report_listeners:
            listener(interface, report)

    # -- internals --------------------------------------------------------------------

    def _state_for(self, interface: Interface) -> _InterfaceState:
        state = self._states.get(interface.vif)
        if state is None:
            state = _InterfaceState()
            self._states[interface.vif] = state
        return state

    def _send_query(self, interface: Interface, group: Optional[IPv4Address]) -> None:
        self.stats.queries_sent += 1
        if group is None:
            destination = ALL_SYSTEMS
            max_response = self.config.query_response_interval
        else:
            destination = group
            max_response = self.config.last_member_query_interval
        query = MembershipQuery(group, max_response)
        interface.send(IPDatagram(interface.address, destination, PROTO_IGMP, query, 1))

    def _restart_expiry(self, interface: Interface, group: IPv4Address, timeout: float) -> None:
        state = self._state_for(interface)
        existing = state.expiry_timers.get(group)
        if existing is not None:
            existing.cancel()
        state.expiry_timers[group] = self.router.scheduler.call_later(
            timeout, self._expire_membership, interface, group, timeout
        )

    def _expire_membership(
        self, interface: Interface, group: IPv4Address, timeout: float
    ) -> None:
        state = self._state_for(interface)
        last_heard = state.members.get(group)
        if last_heard is None:
            return
        if self.router.scheduler.now - last_heard < timeout - 1e-9:
            return  # a report arrived since this timer was armed
        state.members.pop(group, None)
        if self.database._remove(interface, group):
            self._notify_membership(interface, group, present=False)

    def _notify_membership(self, interface: Interface, group: IPv4Address, present: bool) -> None:
        if present:
            self.stats.membership_gains += 1
        else:
            self.stats.membership_losses += 1
        self.telemetry.bus.publish(
            MembershipEvent(
                time=self.router.scheduler.now,
                router=self.router.name,
                vif=interface.vif,
                group=group,
                present=present,
            )
        )
        for listener in self._membership_listeners:
            listener(interface, group, present)
