"""The CBT control plane: tree building, maintenance, and teardown.

One :class:`CBTProtocol` instance turns a simulated
:class:`repro.routing.table.Router` into a CBT router.  The
implementation tracks the spec section by section:

* §2.3 DR election (querier = D-DR) — :mod:`repro.core.dr`
* §2.5 tree joining: JOIN_REQUEST hop-by-hop toward the target core,
  transient path state, pending-join caching, JOIN_ACK fixing state
* §2.6 proxy-acks and G-DRs on multi-access LANs
* §2.7 teardown: QUIT_REQUEST / QUIT_ACK and FLUSH_TREE
* §6   keepalives (echo request/reply), parent failure recovery with
  alternate cores, core/non-core restarts, rejoin loop detection via
  REJOIN-NACTIVE
* §9   default timers (all configurable)

Data-plane behaviour (§4, §5, §7) lives in
:mod:`repro.core.forwarding`; this module owns the FIB it reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constants import (
    CBT_AUX_PORT,
    CBT_PORT,
    JoinAckSubcode,
    JoinSubcode,
    MessageType,
)
from repro.core.dr import CBTNeighbourTable, DRElection
from repro.core.fib import FIB, FIBEntry
from repro.core.forwarding import DataPlane
from repro.core.constants import CBT_VERSION
from repro.core.messages import (
    CBTControlMessage,
    CBTDecodeError,
    covering_prefix,
    decode_control,
    in_masked_range,
)
from repro.core.state import CachedJoin, PendingJoin, QuitAttempt, RejoinAttempt
from repro.core.timers import CBTTimers, DEFAULT_TIMERS
from repro.igmp.messages import CoreReport
from repro.igmp.router_side import IGMPConfig, IGMPRouterAgent
from repro.netsim.address import ALL_CBT_ROUTERS, IPv4Address
from repro.netsim.engine import PeriodicTimer
from repro.netsim.nic import Interface
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_CBT, PROTO_IPIP, PROTO_UDP, UDPDatagram
from repro.telemetry import Counter, MetricsRegistry, ProtocolEvent

_ANY_GROUP = IPv4Address("0.0.0.0")

#: A router's tree statistics, registered as the attribute family
#: ``cbt.router.<name>.``: metric -> attribute of its :class:`TreeStats`.
_TREE_STATS = (
    ("joins_completed", "joins_completed"),
    ("quit_retries", "quit_retries"),
    ("stale_cores_ignored", "stale_cores_ignored"),
    ("fib_adds", "fib.fib_adds"),
    ("fib_removes", "fib.fib_removes"),
    ("fib_entries", "fib.fib_entries"),
    ("fib_state", "fib.fib_state"),
)


class TreeStats:
    """A router's tree-building milestones (plain ints) and its FIB,
    whose add / remove / size counts the registry reads with them as
    ``cbt.router.<name>.*``, ``name`` the router's.  Apart from the
    protocol, which a closed world empties, so its registry reads them
    still; and holding nothing that refers back to the registry."""

    __slots__ = ("name", "fib", "joins_completed", "quit_retries", "stale_cores_ignored")

    def __init__(self, name: str, fib: FIB) -> None:
        self.name = name
        self.fib = fib
        self.joins_completed = 0
        self.quit_retries = 0
        #: Core lists that disagreed with the coordinator's (ignored).
        self.stale_cores_ignored = 0


class ControlStats:
    """Control-plane message counters (spec message type granularity).

    Backed by the telemetry registry: each message type resolves to a
    ``cbt.router.<name>.tx.<type>`` / ``.rx.<type>`` counter, so the
    CLI ``repro stats`` view and the conservation laws read the same
    numbers.  The historical ``sent`` / ``received`` dict views
    (UPPERCASE message-type keys, insertion order, zero counts omitted)
    are preserved as properties.
    """

    __slots__ = ("_registry", "_prefix", "tx", "rx", "decode_errors")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "cbt.router.unnamed",
    ) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self._registry = registry
        self._prefix = prefix
        #: msg_type -> its resolved counter, in first-use order.  A hot
        #: sender or receiver adds to a hit's ``.value`` itself and
        #: calls ``count_*`` only on a miss: the first message of a type.
        self.tx: Dict[MessageType, Counter] = {}
        self.rx: Dict[MessageType, Counter] = {}
        #: Control messages dropped as undecodable (wire-format mode).
        self.decode_errors = 0

    def count_sent(self, msg_type: MessageType) -> None:
        counter = self.tx.get(msg_type)
        if counter is None:
            counter = self.tx[msg_type] = self._registry.counter(
                f"{self._prefix}.tx.{msg_type._name_.lower()}"
            )
        counter.value += 1

    def count_received(self, msg_type: MessageType) -> None:
        counter = self.rx.get(msg_type)
        if counter is None:
            counter = self.rx[msg_type] = self._registry.counter(
                f"{self._prefix}.rx.{msg_type._name_.lower()}"
            )
        counter.value += 1

    @property
    def sent(self) -> Dict[str, int]:
        return {k.name: c.value for k, c in self.tx.items() if c.value}


class CBTProtocol:
    """CBT control and data plane for one router."""

    def __init__(
        self,
        router,
        coordinator,
        timers: CBTTimers = DEFAULT_TIMERS,
        mode: str = "cbt",
        igmp_config: Optional[IGMPConfig] = None,
        use_cbt_multicast: bool = False,
        aggregate_echoes: bool = False,
        wire_format: bool = False,
    ) -> None:
        if mode not in ("cbt", "native"):
            raise ValueError(f"mode must be 'cbt' or 'native', got {mode!r}")
        self.router = router
        self.timers = timers
        self.mode = mode
        self.coordinator = coordinator
        self.use_cbt_multicast = use_cbt_multicast
        self.aggregate_echoes = aggregate_echoes
        #: When True, control messages cross the network as encoded
        #: §8 bytes and are decoded (checksum-verified) per hop.
        self.wire_format = wire_format

        self.fib = FIB()
        self.igmp = IGMPRouterAgent(router, config=igmp_config)
        self.neighbours = CBTNeighbourTable(timers.hello_hold)
        self.dr_election = DRElection(self.igmp, self.neighbours)
        self.data_plane = DataPlane(self)

        #: group -> ordered core list (primary first) learnt from core
        #: reports or passing joins, for a group the coordinator does
        #: not announce; an announced list is read from the coordinator.
        self._learned_cores: Dict[IPv4Address, Tuple[IPv4Address, ...]] = {}
        self.pending: Dict[IPv4Address, PendingJoin] = {}
        self.rejoins: Dict[IPv4Address, RejoinAttempt] = {}
        self.quits: Dict[IPv4Address, QuitAttempt] = {}
        #: groups we want to join as soon as core information arrives.
        self._want_join: Dict[IPv4Address, int] = {}
        #: group -> index of the core the local RP/Core-Report targeted.
        self._target_core_index: Dict[IPv4Address, int] = {}
        #: (vif, group) -> G-DR address learnt from a proxy-ack (§2.6).
        self._gdr_known: Dict[Tuple[int, IPv4Address], IPv4Address] = {}
        #: group -> consecutive loop detections; bounds loop-break retries.
        self._loop_count: Dict[IPv4Address, int] = {}

        # Telemetry: this router's statistics (``ControlStats``,
        # ``TreeStats``) are read under its name in the scheduler-wide
        # registry; events go onto the shared trace bus only.  The
        # engine keeps no reference to either (each is one read away,
        # through the router's scheduler), nor to its join-latency
        # histogram or the HELLO cadence (``timers.hello_interval``):
        # at 29 attributes or fewer an instance's values sit behind
        # its class's shared keys (docs/PERFORMANCE.md).
        registry = router.scheduler.telemetry.registry
        prefix = f"cbt.router.{router.name}"
        self.stats = ControlStats(registry, prefix)
        self.tree_stats = TreeStats(router.name, self.fib)
        registry.gauge_attrs("cbt.router.", self.tree_stats, _TREE_STATS)
        #: kind -> its ``cbt.router.<name>.event.<kind>`` counter, in
        #: first-use order; :meth:`CBTDomain.events_total` sums them.
        self.event_counters: Dict[str, Counter] = {}
        registry.histogram(f"{prefix}.join_latency")
        #: The four maintenance tickers, made by :meth:`start`; the
        #: engine runs while they do.
        self._tickers: List[PeriodicTimer] = []
        #: §5.2 tunnel configuration: when set, per-core interface
        #: rankings replace unicast routing for reaching those cores.
        self.tunnel_table = None
        #: What :meth:`_hello_tick`'s rule reads besides the neighbour
        #: table: HELLO ticks since the last once-a-hold tick, and a
        #: mask with bit ``i`` set when ``router.lan_interfaces[i]`` was
        #: up at the previous tick (ints, so a router holds no container
        #: for them).
        self._hello_ticks = 0
        self._lans_up = 0

        # Wire ourselves into the router.
        router.register_handler(PROTO_UDP, self._handle_udp)
        router.register_handler(PROTO_CBT, self.data_plane.handle_cbt_unicast)
        router.register_handler(PROTO_IPIP, self._handle_ipip)
        router.multicast_forwarder = self.data_plane
        router.unicast_interceptor = self.data_plane.intercept_unicast
        self.igmp.on_membership_change(self._on_membership_change)
        self.igmp.on_core_report(self._on_core_report)
        coordinator.register(self)
        router.scheduler.register(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin IGMP querier duty, HELLOs, and maintenance timers; a
        second call does nothing."""
        if self._tickers:
            return
        self.igmp.start()
        scheduler = self.router.scheduler
        self._tickers = [
            PeriodicTimer(scheduler, interval, tick)
            for interval, tick in (
                (self.timers.hello_interval, self._hello_tick),
                (self.timers.echo_interval, self._echo_tick),
                (self.timers.child_assert_interval, self._child_assert_tick),
                (self.timers.iff_scan_interval, self._iff_scan_tick),
            )
        ]
        # Two quick HELLOs so neighbours learn us fast, then periodic.
        self._send_hellos()
        scheduler.call_later(1.0, self._send_hellos)
        self._lans_up = sum(
            1 << index for index, i in enumerate(self.router.lan_interfaces) if i._up
        )
        for ticker in self._tickers:
            ticker.start()

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------

    @property
    def address(self) -> IPv4Address:
        return self.router.primary_address

    def is_on_tree(self, group: IPv4Address) -> bool:
        return self.fib.get(group) is not None

    def tree_parent(self, group: IPv4Address) -> Optional[IPv4Address]:
        entry = self.fib.get(group)
        return entry.parent_address if entry else None

    def cores_for(self, group: IPv4Address) -> Tuple[IPv4Address, ...]:
        return self.coordinator.cores_for(group) or self._learned_cores.get(group, ())

    def is_core_for(self, group: IPv4Address) -> bool:
        return any(self.router.owns_address(c) for c in self.cores_for(group))

    def is_primary_core_for(self, group: IPv4Address) -> bool:
        cores = self.cores_for(group)
        return bool(cores) and self.router.owns_address(cores[0])

    def has_gdr(self, vif: int, group: IPv4Address) -> bool:
        return (vif, group) in self._gdr_known

    def learn_cores(self, group: IPv4Address, cores: Sequence[IPv4Address]) -> None:
        """Record the ordered core list a message carried for ``group``.

        The coordinator (the stand-in for the external core
        advertisement protocol) is ground truth: a list riding a join,
        ack or core report counts only for a group it does not
        announce.  A different list for an announced group is a pre-
        handover message still in flight, which must not roll the
        migration's re-announcement back on whichever routers it
        crosses; it is counted, not evented, so a late straggler cannot
        break quiescence detection.
        """
        if not cores:
            return
        announced = self.coordinator.cores_for(group)
        if announced:
            if tuple(cores) != announced:
                self.tree_stats.stale_cores_ignored += 1
            return
        self._learned_cores[group] = tuple(cores)

    def reannounced(self, group: IPv4Address) -> None:
        """The coordinator re-announced ``group``'s core list: any
        target-core index into the old list is discarded, and a router
        that owns the new primary stands as the tree root."""
        self._target_core_index.pop(group, None)
        if self.router.owns_address(self.coordinator.cores_for(group)[0]):
            self._promote_to_primary_root(group)

    def _promote_to_primary_root(self, group: IPv4Address) -> None:
        """A core re-announcement just made this router the primary.

        The primary core is *the* tree root (§2.1), but a router
        promoted mid-life may still be an ordinary on-tree node with an
        upstream parent — or a join of its own in flight.  Keeping that
        stale upstream welds a parent cycle the moment the old primary
        grafts toward us (its join terminates here and is acked through
        our old chain back to it).  So on promotion we stand as root:
        abandon any join/rejoin/quit in progress, quit toward the old
        parent so it drops our child state, and answer any downstream
        joins we were holding ourselves.
        """
        entry = self.fib.get(group)
        pend = self.pending.pop(group, None)
        if entry is None and pend is None and group not in self.rejoins:
            return  # never touched this group: nothing to shed
        self._drop_rejoin(group)
        self._cancel_quit(group)
        if pend is not None:
            pend.cancel_timers()
        entry = self.fib.get_or_create(group)
        if entry.has_parent:
            self._send_quit_to(group, entry.parent_address)
            entry.clear_parent()
        self._record("core_promoted", group)
        if pend is not None:
            # Downstream joins cached behind our own join: we are the
            # root now, so they terminate (and get acked) right here.
            self._replay_cached(pend)

    def graft_toward(self, group: IPv4Address, cores: Sequence[IPv4Address]) -> bool:
        """Migration handover graft: re-home this (old-primary) root
        under the new primary with an active rejoin (§6.2 flavour).

        Mirrors the `_parent_failed` recovery path: the downstream
        branch lying on the join path is flushed first, otherwise the
        rejoin would terminate on our own descendant and weld a cycle
        that §6.3 NACTIVE detection then has to unpick.  Returns True
        when a join was originated (or a retry chain armed).
        """
        cores = tuple(cores)
        entry = self.fib.get(group)
        if not cores or entry is None or entry.has_parent:
            return False
        if self.router.owns_address(cores[0]):
            return False  # still the primary: nothing to graft toward
        if group in self.pending:
            return False  # a join of our own is already in flight
        self._cancel_quit(group)
        self._record("graft", group, detail=str(cores[0]))
        self._flush_child_on_path(group, cores[0])
        return self._join_primary(group, cores, cores[0])

    def events_of(self, kind: str) -> List[ProtocolEvent]:
        """This router's ``kind`` milestones, read from the trace bus."""
        name = self.router.name
        return [
            e
            for e in self.router.scheduler.telemetry.bus.records("protocol")
            if e.router == name and e.kind == kind
        ]

    # ------------------------------------------------------------------
    # IGMP-driven behaviour (spec §2.2, §2.5, §2.7)
    # ------------------------------------------------------------------

    def _on_core_report(self, interface: Interface, report: CoreReport) -> None:
        self.learn_cores(report.group, report.cores)
        if 0 <= report.target_core < len(report.cores):
            self._target_core_index[report.group] = report.target_core
        else:
            # Malformed (or stale relative to its own core list) report:
            # storing the index would let a later join dereference past
            # the learned tuple.  Reject it — joins fall back to the
            # primary — and count the rejection.
            self._record(
                "core_report_rejected",
                report.group,
                detail=f"target_core={report.target_core} cores={len(report.cores)}",
            )
        if report.group in self._want_join:
            vif = self._want_join.pop(report.group)
            self._maybe_join(report.group, self.router.interface_for_vif(vif))

    def _on_membership_change(
        self, interface: Interface, group: IPv4Address, present: bool
    ) -> None:
        if present:
            self._maybe_join(group, interface)
        else:
            self._gdr_known.pop((interface.vif, group), None)
            self._maybe_quit(group)

    def _maybe_join(self, group: IPv4Address, interface: Interface) -> None:
        """Originate a join for ``group`` if this D-DR should (§2.5)."""
        if group in self.quits and self.dr_election.is_default_dr(interface):
            # A local member appeared while our own quit is in flight.
            # The FIB entry still exists, but the parent may already
            # have processed the quit (or be about to when the retry
            # lands) and dropped us — returning early here would strand
            # the new member on a dying branch.  Mirror the
            # new-downstream-child case: abandon the quit and
            # re-validate the upstream path with a rejoin.
            entry = self.fib.get(group)
            if entry is not None:
                self._abort_quit_for_new_child(entry)
                return
        if group in self.fib or group in self.pending:
            return
        if not self.dr_election.is_default_dr(interface):
            return
        if self.neighbours.tree_announcers(interface.vif, group, self.router.scheduler.now):
            return  # an attached router already serves this LAN
        cores = self.cores_for(group)
        if not cores:
            self._want_join[group] = interface.vif
            return
        # Honour the target core the local RP/Core-Report named (the
        # appendix's "target core" field); default to the primary.
        target_index = self._target_core_index.get(group, 0)
        target = cores[target_index] if target_index < len(cores) else cores[0]
        self._attach(group, cores, target, interface.address)

    def _attach(
        self,
        group: IPv4Address,
        cores: Tuple[IPv4Address, ...],
        target: IPv4Address,
        origin: IPv4Address,
    ) -> None:
        """Join ``group``'s tree as this router's role directs.

        The primary core is the tree root (§2.1): a member subnet on it
        needs no join at all, and "joining toward cores[0]" would
        target its own address, whose no-route fallback then grafts
        the primary under a secondary.  A secondary core joins the
        primary (§2.5).  Any other router joins ``target`` on behalf
        of the member subnet at ``origin``.
        """
        if self.is_primary_core_for(group):
            self.fib.get_or_create(group)
            self._record("joined", group, detail="primary core root")
            return
        if self.is_core_for(group):
            self.fib.get_or_create(group)
            self._join_primary(group, cores, cores[0])
            return
        self._join_or_arm_retry(
            group,
            cores=cores,
            target_core=target,
            subcode=JoinSubcode.ACTIVE_JOIN,
            origin=origin,
        )

    def _join_primary(
        self,
        group: IPv4Address,
        cores: Tuple[IPv4Address, ...],
        primary: IPv4Address,
    ) -> bool:
        """The active rejoin toward ``primary`` from this router's own
        address: a secondary core's (§2.5), a grafting old primary's,
        and a quitting router's that gained a child."""
        return self._join_or_arm_retry(
            group,
            cores=cores,
            target_core=primary,
            subcode=JoinSubcode.REJOIN_ACTIVE,
            origin=self.address,
        )

    # ------------------------------------------------------------------
    # join origination and retransmission
    # ------------------------------------------------------------------

    def configure_tunnels(self, table) -> None:
        """Attach a §5.2 :class:`repro.core.tunnels.TunnelTable`."""
        self.tunnel_table = table

    def _resolve_upstream(
        self, target: IPv4Address
    ) -> Optional[Tuple[IPv4Address, int]]:
        """(next-hop address, vif) toward ``target``.

        §5.2: when tunnel rankings are configured for the target core,
        they replace unicast routing entirely — the highest-ranked
        *available* interface wins, falling back down the ranking.
        """
        if self.tunnel_table is not None:
            entry = self.tunnel_table.resolve(target, self.router.interfaces)
            if entry is not None:
                remote = entry.remote_address or target
                return remote, entry.vif
            if self.tunnel_table.ranking(target):
                return None  # ranked core, but every tunnel is down
        route = self.router.best_route(target)
        if route is None:
            return None
        next_hop = route.next_hop if route.next_hop is not None else target
        return next_hop, route.interface.vif

    def _originate_join(
        self,
        group: IPv4Address,
        cores: Tuple[IPv4Address, ...],
        target_core: IPv4Address,
        subcode: JoinSubcode,
        origin: IPv4Address,
    ) -> bool:
        """Create pending state and unicast a join to the first hop."""
        if self.router.owns_address(target_core):
            # Targeting an address we own would deliver the join right
            # back to us and weld self-parent/self-child state; a core's
            # only meaningful upstream is *another* core.
            self._record("self_core_skipped", group, detail=str(target_core))
            return False
        resolved = self._resolve_upstream(target_core)
        if resolved is None:
            self._record("no_route", group, detail=str(target_core))
            return False
        upstream, upstream_vif = resolved
        pend = PendingJoin(
            group=group,
            origin=origin,
            subcode=subcode,
            target_core=target_core,
            cores=cores,
            upstream_address=upstream,
            upstream_vif=upstream_vif,
            created_at=self.router.scheduler.now,
        )
        self.pending[group] = pend
        self._arm_pending_timers(pend, originator=True)
        self._send_control(pend.join_request(), upstream)
        return True

    def _arm_pending_timers(self, pend: PendingJoin, originator: bool) -> None:
        scheduler = self.router.scheduler
        if originator:
            pend.retransmit_timer = scheduler.call_later(
                self.timers.pend_join_interval,
                self._retransmit_join,
                pend.group,
            )
        pend.expiry_timer = scheduler.call_later(
            self.timers.pend_join_timeout
            if originator
            else self.timers.expire_pending_join,
            self._expire_pending,
            pend.group,
            originator,
        )

    def _retransmit_join(self, group: IPv4Address) -> None:
        pend = self.pending.get(group)
        if pend is None:
            return
        pend.retransmissions += 1
        self._send_control(pend.join_request(), pend.upstream_address)
        pend.retransmit_timer = self.router.scheduler.call_later(
            self.timers.pend_join_interval, self._retransmit_join, group
        )

    def _expire_pending(self, group: IPv4Address, originator: bool) -> None:
        pend = self.pending.pop(group, None)
        if pend is None:
            return
        if originator:
            self._join_attempt_failed(pend)
        else:
            # Transit router: silently drop the transient state
            # (spec §9 EXPIRE-PENDING-JOIN).
            pend.cancel_timers()

    def _join_attempt_failed(self, pend: PendingJoin) -> None:
        """Our join ``pend`` (already out of ``self.pending``) timed out
        or was NACKed: try an alternate core."""
        group = pend.group
        pend.cancel_timers()
        self._nack_cached(pend)
        if group not in self.rejoins:
            self.rejoins[group] = RejoinAttempt(
                group=group,
                started_at=pend.created_at,
                cores=pend.cores,
                core_index=self._core_index(pend.cores, pend.target_core),
            )
        self._retry_next_core(group, pend.cores, pend.subcode, pend.origin)

    def _retry_next_core(
        self,
        group: IPv4Address,
        cores: Tuple[IPv4Address, ...],
        subcode: JoinSubcode,
        origin: IPv4Address,
    ) -> None:
        """Retry a failed join toward the rejoin attempt's next core,
        with the failed join's cores, subcode and origin."""
        attempt = self.rejoins.get(group)
        if attempt is None or group in self.pending:
            return  # settled, or joining again, since this retry was armed
        core = self._next_rejoin_core(group, attempt)
        if core is None:
            return
        self._record("retry", group, detail=str(core))
        self._flush_child_on_path(group, core)
        started = self._originate_join(
            group, cores=cores, target_core=core, subcode=subcode, origin=origin
        )
        if not started:
            # No route to this core either; retry after a
            # retransmission interval rather than recursing.
            attempt.retry_timer = self.router.scheduler.call_later(
                self.timers.pend_join_interval,
                self._retry_next_core,
                group,
                cores,
                subcode,
                origin,
            )

    def _next_rejoin_core(
        self, group: IPv4Address, attempt: RejoinAttempt
    ) -> Optional[IPv4Address]:
        """The core ``attempt`` tries next (§6.1), or ``None`` when the
        attempt ends here instead.

        A primary core (promoted by a core re-announcement while the
        attempt ran) is the root and must not chase foreign cores: it
        stands as root.  A non-core past the reconnect deadline gives
        up, flushing so its descendants re-home; a core stays a
        legitimate root for its partition and keeps retrying until
        the topology heals.  The core cycle skips addresses this router
        owns; when every listed core is local, this router is the only
        core left and stands as the partition root.
        """
        if self.is_primary_core_for(group):
            self._drop_rejoin(group)
            self.fib.get_or_create(group)
            return None
        if attempt.expired(
            self.router.scheduler.now, self.timers.reconnect_timeout
        ) and not self.is_core_for(group):
            self._give_up(group)
            return None
        for _ in range(len(attempt.cores)):
            core = attempt.advance_core()
            if not self.router.owns_address(core):
                return core
        self._drop_rejoin(group)
        return None

    def _arm_rejoin(self, group: IPv4Address) -> None:
        """(Re)arm the retry timer that drives ``group``'s rejoin."""
        attempt = self.rejoins[group]
        if attempt.retry_timer is not None:
            attempt.retry_timer.cancel()
        attempt.retry_timer = self.router.scheduler.call_later(
            self.timers.pend_join_interval, self._retry_rejoin, group
        )

    def _drop_rejoin(self, group: IPv4Address) -> None:
        """End ``group``'s rejoin attempt and its retry timer."""
        attempt = self.rejoins.pop(group, None)
        if attempt is not None and attempt.retry_timer is not None:
            attempt.retry_timer.cancel()

    def _join_or_arm_retry(
        self,
        group: IPv4Address,
        cores: Tuple[IPv4Address, ...],
        target_core: IPv4Address,
        subcode: JoinSubcode,
        origin: IPv4Address,
    ) -> bool:
        """:meth:`_originate_join`, but resilient to no-route failures.

        When no route to ``target_core`` exists right now (it may sit
        behind the very failure that prompted the join), seed a rejoin
        attempt whose retry timer cycles the core list until a route
        appears — otherwise the group would be stranded with no driver.
        """
        started = self._originate_join(
            group,
            cores=cores,
            target_core=target_core,
            subcode=subcode,
            origin=origin,
        )
        if not started:
            if group not in self.rejoins:
                self.rejoins[group] = RejoinAttempt(
                    group=group,
                    started_at=self.router.scheduler.now,
                    cores=cores,
                    core_index=self._core_index(cores, target_core),
                )
            self._arm_rejoin(group)
        return started

    @staticmethod
    def _core_index(cores: Tuple[IPv4Address, ...], core: IPv4Address) -> int:
        try:
            return cores.index(core)
        except ValueError:
            return 0

    def _give_up(self, group: IPv4Address) -> None:
        """Reconnect timeout exhausted (§6.1): flush downstream, clear."""
        self._drop_rejoin(group)
        entry = self.fib.get(group)
        if entry is not None and entry.has_children:
            self._send_flush_downstream(entry)
        self._clear_group(group)
        self._record("gave_up", group)
        # With the old subtree flushed (descendants re-home themselves),
        # a later fresh join usually succeeds; schedule one if local
        # members still need the group.
        self.router.scheduler.call_later(
            self.timers.pend_join_timeout, self._fresh_join, group
        )

    def _fresh_join(self, group: IPv4Address) -> None:
        if group in self.fib or group in self.pending:
            return
        member_vifs = self.igmp.database.interfaces_with(group)
        cores = self.cores_for(group)
        if not member_vifs or not cores:
            return
        origin = self.router.interface_for_vif(member_vifs[0]).address
        self._attach(group, cores, cores[0], origin)

    def _flush_child_on_path(self, group: IPv4Address, core: IPv4Address) -> None:
        """§2.7: tear down a downstream branch that lies on the join path."""
        entry = self.fib.get(group)
        if entry is None:
            return
        route = self.router.best_route(core)
        if route is None:
            return
        # A directly connected target has no next hop: the first hop on
        # the path is the target itself (it may well be our child — an
        # adjacent core we are about to rejoin through).
        hop = route.next_hop if route.next_hop is not None else core
        if hop in entry.children:
            self._send_control(
                CBTControlMessage(
                    msg_type=MessageType.FLUSH_TREE,
                    code=0,
                    group=group,
                    origin=self.address,
                ),
                hop,
            )
            entry.remove_child(hop)

    # ------------------------------------------------------------------
    # control-message reception and dispatch
    # ------------------------------------------------------------------

    def _handle_udp(self, node: Node, interface: Interface, datagram: IPDatagram) -> None:
        udp = datagram.payload
        if type(udp) is not UDPDatagram or (
            udp.dport != CBT_PORT and udp.dport != CBT_AUX_PORT
        ):
            return  # raw application bytes or another port: not ours
        message = udp.payload
        if type(message) is not CBTControlMessage:
            if not isinstance(message, (bytes, bytearray)):
                return
            try:
                message = decode_control(bytes(message))
            except CBTDecodeError:
                self.stats.decode_errors += 1
                return  # corrupted on the wire: drop silently
            if message.version != CBT_VERSION:
                self.stats.decode_errors += 1
                return
        msg_type = message.msg_type
        counter = self.stats.rx.get(msg_type)
        if counter is not None:
            counter.value += 1
        else:
            self.stats.count_received(msg_type)
        handler = _CONTROL_HANDLERS.get(msg_type)
        if handler is not None:
            handler(self, interface, datagram.src, message)

    def _handle_ipip(self, node: Node, interface: Interface, datagram: IPDatagram) -> None:
        self.data_plane.handle_ipip(interface, datagram)

    def _send_control(
        self,
        message: CBTControlMessage,
        destination: IPv4Address,
        port: int = CBT_PORT,
    ) -> None:
        """Unicast ``message`` (as §8 bytes in wire-format mode)."""
        # Source the datagram from the egress interface, as a real UDP
        # stack would: peers record us (as child, parent, or join
        # downstream hop) under the address they can reach on the
        # shared link.
        route = self.router.best_route(destination)
        src = route.interface.address if route is not None else self.address
        self.stats.count_sent(message.msg_type)
        payload = message.encode() if self.wire_format else message
        self.router.originate(
            IPDatagram(src, destination, PROTO_UDP, UDPDatagram(port, port, payload))
        )

    # -- JOIN_REQUEST ------------------------------------------------------

    def _recv_join_request(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        self.learn_cores(message.group, message.cores)
        subcode = JoinSubcode(message.code)
        if subcode == JoinSubcode.REJOIN_NACTIVE:
            self._recv_nactive_rejoin(arrival, src, message)
            return
        self._process_join(arrival.vif, src, message, subcode)

    def _process_join(
        self,
        arrival_vif: int,
        src: IPv4Address,
        message: CBTControlMessage,
        subcode: JoinSubcode,
    ) -> None:
        group = message.group
        pend = self.pending.get(group)
        if pend is not None:
            self._cache_or_refresh(pend, arrival_vif, src, message, subcode)
            return
        entry = self.fib.get(group)
        if entry is not None:
            if entry.has_parent and entry.parent_address == src:
                # §6.3 degenerate case: our own parent is rejoining
                # through us, so the upstream path we shared with it is
                # defunct.  Acking now would weld a two-router cycle
                # that keepalives then sustain forever.  Recover as if
                # the parent had failed, then re-process the join
                # against the recovered state (it lands in our own
                # pending join's cache, or terminates on a parentless
                # root).
                self._record("parent_rejoined", group, detail=str(src))
                self._parent_failed(group)
                self._process_join(arrival_vif, src, message, subcode)
                return
            self._terminate_join_on_tree(entry, arrival_vif, src, message, subcode)
            return
        if self.router.owns_address(message.target_core):
            self._join_reached_core(arrival_vif, src, message)
            return
        self._forward_join(arrival_vif, src, message, subcode)

    def _cache_or_refresh(
        self,
        pend: PendingJoin,
        arrival_vif: int,
        src: IPv4Address,
        message: CBTControlMessage,
        subcode: JoinSubcode,
    ) -> None:
        """Pending-join rule (§2.5): cache, or re-forward a retransmit."""
        if pend.downstream_address == src and pend.origin == message.origin:
            # The downstream hop retransmitted the join we already
            # forwarded: push our own copy upstream again.
            self._send_control(pend.join_request(), pend.upstream_address)
            return
        already = any(
            c.downstream_address == src and c.origin == message.origin
            for c in pend.cached
        )
        if not already:
            pend.cache(
                CachedJoin(
                    origin=message.origin,
                    subcode=subcode,
                    downstream_address=src,
                    downstream_vif=arrival_vif,
                    cores=message.cores,
                )
            )

    def _terminate_join_on_tree(
        self,
        entry: FIBEntry,
        arrival_vif: int,
        src: IPv4Address,
        message: CBTControlMessage,
        subcode: JoinSubcode,
    ) -> None:
        """An on-tree router terminates and acknowledges a join (§2.5)."""
        self._ack_join(entry, arrival_vif, src, message)
        if (
            subcode == JoinSubcode.REJOIN_ACTIVE
            and not self.router.owns_address(message.target_core)
            and not self.is_primary_core_for(message.group)
            and entry.has_parent
        ):
            # §6.3: an on-tree router converts an active rejoin into
            # the NACTIVE loop-detection message and sends it up its
            # parent interface, inserting its own address in the
            # core-address field so the primary can ack it directly.
            # Secondary cores are NOT exempt: during a core migration
            # the old primary's graft can terminate on the old
            # *secondary* — its own descendant — and skipping the
            # NACTIVE walk there welds a silent forwarding loop.  Only
            # the primary (a true root, never parented) skips it.
            converted = message.with_fields(
                code=int(JoinSubcode.REJOIN_NACTIVE),
                target_core=self.address,
            )
            self._send_control(converted, entry.parent_address)

    def _join_reached_core(
        self, arrival_vif: int, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        """This router is the join's target core and is off-tree (§6.2)."""
        group = message.group
        entry = self.fib.get_or_create(group)
        self._ack_join(entry, arrival_vif, src, message)
        primary = message.primary_core
        if primary is not None and not self.router.owns_address(primary):
            # Secondary core: ack first, then join the primary (§2.5).
            self._record("core_activated", group, detail="secondary")
            self._join_primary(group, message.cores, primary)
        else:
            self._record("core_activated", group, detail="primary")

    def _forward_join(
        self,
        arrival_vif: int,
        src: IPv4Address,
        message: CBTControlMessage,
        subcode: JoinSubcode,
    ) -> None:
        """Off-tree transit router: keep transient state, forward (§2.5)."""
        resolved = self._resolve_upstream(message.target_core)
        if resolved is None:
            self._send_control(
                CBTControlMessage(
                    msg_type=MessageType.JOIN_NACK,
                    code=0,
                    group=message.group,
                    origin=message.origin,
                    target_core=message.target_core,
                    cores=message.cores,
                ),
                src,
            )
            return
        upstream, upstream_vif = resolved
        pend = PendingJoin(
            group=message.group,
            origin=message.origin,
            subcode=subcode,
            target_core=message.target_core,
            cores=message.cores,
            upstream_address=upstream,
            upstream_vif=upstream_vif,
            created_at=self.router.scheduler.now,
            downstream_address=src,
            downstream_vif=arrival_vif,
        )
        self.pending[message.group] = pend
        self._arm_pending_timers(pend, originator=False)
        self._send_control(message, upstream)

    def _ack_join(
        self,
        entry: FIBEntry,
        downstream_vif: int,
        downstream: IPv4Address,
        message: CBTControlMessage,
    ) -> None:
        """Acknowledge a join, applying the §2.6 proxy-ack rule."""
        interface = self.router.interface_for_vif(downstream_vif)
        proxy = (
            JoinSubcode(message.code) == JoinSubcode.ACTIVE_JOIN
            and message.origin == downstream
            and interface.on_same_network(message.origin)
            and interface.address != message.origin
            and self._has_other_cbt_router(interface, message.origin)
        )
        subcode = JoinAckSubcode.PROXY_ACK if proxy else JoinAckSubcode.NORMAL
        if not proxy:
            entry.add_child(downstream, downstream_vif)
            entry.child_heard_at[downstream] = self.router.scheduler.now
            if entry.group in self.quits:
                # A new downstream arrived while our own quit was in
                # flight: we must stay on-tree.  The parent may already
                # have processed the quit and dropped us, so abandon
                # the quit and re-validate the upstream path with a
                # rejoin (idempotent if the quit never landed).
                self._abort_quit_for_new_child(entry)
        else:
            self._record("gdr", entry.group, detail=f"vif {downstream_vif}")
        ack = CBTControlMessage(
            msg_type=MessageType.JOIN_ACK,
            code=int(subcode),
            group=entry.group,
            origin=message.origin,
            target_core=message.target_core,
            cores=self.cores_for(entry.group) or message.cores,
        )
        self._send_control(ack, downstream)

    def _abort_quit_for_new_child(self, entry: FIBEntry) -> None:
        group = entry.group
        self._cancel_quit(group)
        self._record("quit_cancelled", group)
        if self.is_primary_core_for(group):
            return  # the root needs no upstream path
        cores = self.cores_for(group)
        if not cores:
            return
        entry.clear_parent()
        self._join_primary(group, cores, cores[0])

    def _has_other_cbt_router(
        self, interface: Interface, origin: IPv4Address
    ) -> bool:
        """Proxy-ack sanity check: the originator is a CBT router on
        this LAN distinct from us (i.e. the join took an extra LAN
        hop), not merely any same-subnet source."""
        return self.neighbours.knows(interface.vif, origin)

    # -- JOIN_ACK --------------------------------------------------------------

    def _recv_join_ack(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        subcode = JoinAckSubcode(message.code)
        if subcode == JoinAckSubcode.REJOIN_NACTIVE:
            # Confirmation from the primary core that the NACTIVE
            # rejoin we converted did not describe a loop.  The
            # converting router's address rides in the core field; in
            # transit we are just a relay hop.
            if message.target_core is not None and not self.router.owns_address(
                message.target_core
            ):
                self._forward_nactive_ack(message)
                return
            self._record("nactive_confirmed", message.group)
            return
        group = message.group
        pend = self.pending.pop(group, None)
        if pend is None:
            return  # stale ack
        pend.cancel_timers()
        self.learn_cores(group, message.cores)
        if subcode == JoinAckSubcode.PROXY_ACK:
            # §2.6: cancel transient state; the sender is now G-DR.
            self._gdr_known[(pend.upstream_vif, group)] = src
            self._nack_cached(pend)
            self._record("proxied", group, detail=str(src))
            entry = self.fib.get(group)
            if entry is not None and entry.has_children:
                # A proxy-ack only absolves us of serving the shared
                # LAN — not of our downstream subtree.  Keep the rejoin
                # driving toward a real on-tree attachment.
                if group not in self.rejoins:
                    self.rejoins[group] = RejoinAttempt(
                        group=group,
                        started_at=self.router.scheduler.now,
                        cores=pend.cores,
                    )
                self._arm_rejoin(group)
                return
            # Childless: the G-DR covers our LAN members; any leftover
            # parentless entry would be a stranded root.
            self._drop_rejoin(group)
            if entry is not None:
                self._clear_group(group)
                self._record("yield_lan", group, detail=str(src))
            return
        entry = self.fib.get_or_create(group)
        if group in self.quits:
            # The parent is changing: the old quit (and its retry
            # chain) no longer applies; a late QUIT_ACK from the old
            # parent must not clear the fresh attachment.
            self._cancel_quit(group)
        entry.set_parent(pend.upstream_address, pend.upstream_vif)
        entry.parent_replied_at = self.router.scheduler.now
        if pend.downstream_address is not None:
            self._ack_join(
                entry, pend.downstream_vif, pend.downstream_address, pend.join_request()
            )
        else:
            latency = self.router.scheduler.now - pend.created_at
            self.router.scheduler.telemetry.registry.histogram(
                f"cbt.router.{self.router.name}.join_latency"
            ).observe(latency)
            self.tree_stats.joins_completed += 1
            self._record("joined", group, detail=f"{latency:.4f}")
        if group in self.rejoins:
            self._drop_rejoin(group)
            self._record("rejoined", group)
        self._nack_stale_cached(pend)
        self._replay_cached(pend)
        # Prime the keepalive: send the first echo right away (§6).
        self._send_echo_for(entry)

    def _nack_stale_cached(self, pend: PendingJoin) -> None:
        """NACK cached joins from the neighbour that just became our
        parent.  By ACKing our join it proved it holds its own upstream
        path, so a join cached from it belongs to an earlier epoch
        (e.g. a transient rejoin-through-us during a handover it has
        since recovered from).  Replaying such a join would trip the
        §6.3 parent-rejoined repair against a healthy parent — sever,
        rejoin, re-cache the same stale join — livelocking the pair one
        RTT apart.  A NACK lets a genuinely still-rejoining neighbour
        retransmit against our settled on-tree state instead."""
        stale = [
            cached
            for cached in pend.cached
            if cached.downstream_address == pend.upstream_address
        ]
        if not stale:
            return
        pend.cached = [
            cached
            for cached in pend.cached
            if cached.downstream_address != pend.upstream_address
        ]
        for cached in stale:
            self._send_control(pend.nack(cached), cached.downstream_address)
        self._record(
            "stale_cached_join", pend.group, detail=str(pend.upstream_address)
        )

    def _replay_cached(self, pend: PendingJoin) -> None:
        for cached in pend.cached:
            self._process_join(
                cached.downstream_vif,
                cached.downstream_address,
                CBTControlMessage(
                    msg_type=MessageType.JOIN_REQUEST,
                    code=int(cached.subcode),
                    group=pend.group,
                    origin=cached.origin,
                    target_core=pend.target_core,
                    cores=cached.cores or pend.cores,
                ),
                cached.subcode,
            )
        pend.cached.clear()

    def _nack_cached(self, pend: PendingJoin) -> None:
        for cached in pend.cached:
            self._send_control(pend.nack(cached), cached.downstream_address)
        pend.cached.clear()

    # -- JOIN_NACK -----------------------------------------------------------------

    def _recv_join_nack(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        group = message.group
        pend = self.pending.pop(group, None)
        if pend is None:
            return
        pend.cancel_timers()
        if pend.downstream_address is not None:
            self._send_control(
                message.with_fields(origin=pend.origin), pend.downstream_address
            )
            self._nack_cached(pend)
            return
        # We originated the join: try an alternate core (§6.1).
        self._join_attempt_failed(pend)

    # -- NACTIVE rejoin loop detection (§6.3) -----------------------------------------

    def _recv_nactive_rejoin(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        group = message.group
        if self.router.owns_address(message.origin):
            # We originated the corresponding ACTIVE_REJOIN: the
            # message walked parent links back to us, so the rejoin
            # created a loop.  Quit the freshly established parent.
            self._record("loop_detected", group)
            self._break_loop(group)
            return
        if self.is_primary_core_for(group):
            # Ack the converting router, whose address rides in the
            # core-address field (§8.3.1).  Like every other CBT
            # control message it travels hop-by-hop: each CBT router
            # on the unicast path relays it (and counts it), rather
            # than one protocol send silently crossing several links.
            self._forward_nactive_ack(
                CBTControlMessage(
                    msg_type=MessageType.JOIN_ACK,
                    code=int(JoinAckSubcode.REJOIN_NACTIVE),
                    group=group,
                    origin=message.origin,
                    target_core=message.target_core,
                    cores=self.cores_for(group),
                )
            )
            return
        entry = self.fib.get(group)
        if entry is not None and entry.has_parent:
            self._send_control(message, entry.parent_address)

    def _forward_nactive_ack(self, message: CBTControlMessage) -> None:
        """Relay a REJOIN-NACTIVE ack one hop toward its converting
        router (the address in the core field)."""
        resolved = self._resolve_upstream(message.target_core)
        if resolved is None:
            self._record("no_route", message.group, detail=str(message.target_core))
            return
        self._send_control(message, resolved[0])

    #: Loop detections tolerated before giving up on a group entirely.
    MAX_LOOP_BREAKS = 8

    def _break_loop(self, group: IPv4Address) -> None:
        entry = self.fib.get(group)
        pend = self.pending.pop(group, None)
        parent: Optional[IPv4Address] = None
        if entry is not None and entry.has_parent:
            parent = entry.parent_address
            entry.clear_parent()
        elif pend is not None:
            parent = pend.upstream_address
        if pend is not None:
            pend.cancel_timers()
        if parent is not None:
            self._send_quit_to(group, parent)
        self._loop_count[group] = self._loop_count.get(group, 0) + 1
        if self._loop_count[group] > self.MAX_LOOP_BREAKS:
            # Unicast routing stayed inconsistent for the whole retry
            # budget: flush downstream so descendants re-attach on
            # their own (typically along loop-free paths).
            self._loop_count.pop(group, None)
            self._give_up(group)
            return
        # Try again; the rejoin attempt's reconnect deadline still governs.
        attempt = self.rejoins.get(group)
        if attempt is None:
            attempt = RejoinAttempt(
                group=group,
                started_at=self.router.scheduler.now,
                cores=self.cores_for(group),
            )
            self.rejoins[group] = attempt
        if attempt.expired(self.router.scheduler.now, self.timers.reconnect_timeout):
            self._give_up(group)
            return
        self._arm_rejoin(group)

    def _retry_rejoin(self, group: IPv4Address) -> None:
        attempt = self.rejoins.get(group)
        if attempt is None or group in self.pending:
            return
        entry = self.fib.get(group)
        if entry is not None and entry.has_parent:
            return  # already reattached
        core = self._next_rejoin_core(group, attempt)
        if core is not None:
            self._rejoin_toward(group, entry, attempt.cores, core)

    def _rejoin_toward(
        self,
        group: IPv4Address,
        entry: Optional[FIBEntry],
        cores: Tuple[IPv4Address, ...],
        core: IPv4Address,
    ) -> None:
        """Rejoin toward ``core`` from this router's own address (§6.1):
        actively when a subtree hangs below us, after flushing the
        child that lies on the path."""
        subcode = (
            JoinSubcode.REJOIN_ACTIVE
            if entry is not None and entry.has_children
            else JoinSubcode.ACTIVE_JOIN
        )
        self._flush_child_on_path(group, core)
        started = self._originate_join(
            group, cores=cores, target_core=core, subcode=subcode, origin=self.address
        )
        if not started:
            # No route to this core right now (it may sit behind the
            # failure itself, or mid-partition): keep the retry chain
            # alive instead of stranding the group in rejoin state
            # forever; the reconnect deadline still bounds the loop.
            self._arm_rejoin(group)

    # -- QUIT (§2.7) -------------------------------------------------------------------

    def _maybe_quit(self, group: IPv4Address) -> None:
        """Leaf router with no members left: remove ourselves (§2.7)."""
        entry = self.fib.get(group)
        if entry is None or entry.has_children:
            return
        if self.igmp.any_member_subnet(group):
            return
        if self.is_primary_core_for(group):
            return  # the primary core is the permanent tree root; the
            # core tree to secondaries is (re)built on demand (§1)
        if group in self.quits:
            return
        if not entry.has_parent:
            self._clear_group(group)
            return
        self._start_quit(group, entry.parent_address)

    def _start_quit(self, group: IPv4Address, parent: IPv4Address) -> None:
        quit_attempt = QuitAttempt(group=group, parent=parent)
        self.quits[group] = quit_attempt
        self._send_quit_to(group, parent)
        self._arm_quit_retry(quit_attempt)

    def _cancel_quit(self, group: IPv4Address) -> None:
        """End ``group``'s quit *and* its retry chain, so no stale
        callback fires into a later quit (or a new parent)."""
        quit_attempt = self.quits.pop(group, None)
        if quit_attempt is not None and quit_attempt.retry_timer is not None:
            quit_attempt.retry_timer.cancel()

    def _send_quit_to(self, group: IPv4Address, parent: IPv4Address) -> None:
        self._send_control(
            CBTControlMessage(
                msg_type=MessageType.QUIT_REQUEST,
                code=0,
                group=group,
                origin=self.address,
            ),
            parent,
        )

    def _arm_quit_retry(self, quit_attempt: QuitAttempt) -> None:
        quit_attempt.retry_timer = self.router.scheduler.call_later(
            self.timers.pend_join_interval,
            self._quit_retry,
            quit_attempt.group,
            quit_attempt.parent,
        )

    def _quit_retry(self, group: IPv4Address, parent: IPv4Address) -> None:
        quit_attempt = self.quits.get(group)
        if quit_attempt is None or quit_attempt.parent != parent:
            return  # quit ended, or re-targeted, since this timer was armed
        if quit_attempt.retries_left <= 1:
            # Parent unresponsive: drop parent state unilaterally.
            self._cancel_quit(group)
            self._clear_group(group)
            self._record("quit_forced", group)
            return
        quit_attempt.retries_left -= 1
        self.tree_stats.quit_retries += 1
        self._send_quit_to(group, parent)
        self._arm_quit_retry(quit_attempt)

    def _recv_quit_request(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        entry = self.fib.get(message.group)
        self._send_control(
            CBTControlMessage(
                msg_type=MessageType.QUIT_ACK,
                code=0,
                group=message.group,
                origin=self.address,
            ),
            src,
        )
        if entry is None:
            return
        if entry.remove_child(src):
            # §2.7: the parent checks whether it can now quit in turn.
            self._maybe_quit(message.group)

    def _recv_quit_ack(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        group = message.group
        quit_attempt = self.quits.get(group)
        if quit_attempt is None:
            return
        if quit_attempt.parent != src:
            return  # stale ack from a previous quit's parent
        self._cancel_quit(group)
        self._clear_group(group)
        self._record("quit", group)

    # -- FLUSH_TREE ----------------------------------------------------------------------

    def _send_flush_downstream(self, entry: FIBEntry) -> None:
        for child in list(entry.children):
            self._send_control(
                CBTControlMessage(
                    msg_type=MessageType.FLUSH_TREE,
                    code=0,
                    group=entry.group,
                    origin=self.address,
                ),
                child,
            )

    def _recv_flush(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        group = message.group
        entry = self.fib.get(group)
        if entry is None:
            return
        if entry.parent_address != src:
            return  # flushes are only honoured from the parent
        self._send_flush_downstream(entry)
        self._clear_group(group)
        self._record("flushed", group)
        # §2.7: a flushed router re-establishes itself if it still has
        # directly connected subnets with group presence — no D-DR
        # precondition (it held the group's tree state for those LANs).
        member_vifs = self.igmp.database.interfaces_with(group)
        if member_vifs:
            cores = self.cores_for(group)
            if cores:
                origin = self.router.interface_for_vif(member_vifs[0]).address
                self._attach(group, cores, cores[0], origin)

    def _clear_group(self, group: IPv4Address) -> None:
        self.fib.remove(group)
        self._loop_count.pop(group, None)
        self._cancel_quit(group)
        self._drop_rejoin(group)
        pend = self.pending.pop(group, None)
        if pend is not None:
            pend.cancel_timers()

    # -- keepalives (§6) --------------------------------------------------------------------

    def _echo_tick(self) -> None:
        if not self.fib.by_group:
            return  # no parent to keep alive or to check
        if self.aggregate_echoes:
            # §8.4: one echo per parent, covering the aggregated groups
            # as a (base, mask) range.
            groups_by_parent: Dict[IPv4Address, List[IPv4Address]] = {}
            for entry in self.fib:
                if entry.has_parent:
                    groups_by_parent.setdefault(entry.parent_address, []).append(
                        entry.group
                    )
            for parent, groups in groups_by_parent.items():
                base, mask = covering_prefix(groups)
                self._send_echo(parent, group=base, aggregate=True, mask=mask)
        else:
            for entry in list(self.fib.by_group.values()):
                if entry.has_parent:
                    self._send_echo(entry.parent_address, group=entry.group)
        self._check_parents()

    def _send_echo_for(self, entry: FIBEntry) -> None:
        if entry.has_parent:
            self._send_echo(
                entry.parent_address,
                group=entry.group,
                aggregate=self.aggregate_echoes,
                mask=IPv4Address("255.255.255.255") if self.aggregate_echoes else None,
            )

    def _send_echo(
        self,
        parent: IPv4Address,
        group: IPv4Address,
        aggregate: bool = False,
        mask: Optional[IPv4Address] = None,
    ) -> None:
        self._send_control(
            CBTControlMessage(
                msg_type=MessageType.ECHO_REQUEST,
                code=0,
                group=group,
                origin=self.address,
                aggregate=aggregate,
                group_mask=mask,
            ),
            parent,
            CBT_AUX_PORT,
        )

    def _recv_echo_request(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        now = self.router.scheduler.now
        if message.aggregate:
            # §8.4: refresh every child relationship whose group falls
            # inside the echo's (base, mask) range.  The range does not
            # enumerate exact groups, so unmatched ones cannot be
            # flushed individually; CHILD-ASSERT expiry covers them.
            for entry in self.fib:
                if src in entry.children and in_masked_range(
                    entry.group, message.group, message.group_mask
                ):
                    entry.child_heard_at[src] = now
        else:
            entry = self.fib.get(message.group)
            if entry is None or src not in entry.children:
                # §6: the sender believes we are its parent but we hold
                # no child state (we were flushed, quit, or restarted).
                # Echoing back regardless would keep the stale branch
                # alive forever; tell it to flush and re-attach.
                self._send_control(
                    CBTControlMessage(
                        msg_type=MessageType.FLUSH_TREE,
                        code=0,
                        group=message.group,
                        origin=self.address,
                    ),
                    src,
                )
                return
            entry.child_heard_at[src] = now
        self._send_control(
            CBTControlMessage(
                msg_type=MessageType.ECHO_REPLY,
                code=0,
                group=message.group,
                origin=self.address,
                aggregate=message.aggregate,
                group_mask=message.group_mask,
            ),
            src,
            CBT_AUX_PORT,
        )

    def _recv_echo_reply(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        now = self.router.scheduler.now
        if message.aggregate:
            for entry in self.fib:
                if entry.parent_address == src and in_masked_range(
                    entry.group, message.group, message.group_mask
                ):
                    entry.parent_replied_at = now
        else:
            entry = self.fib.get(message.group)
            if entry is not None and entry.parent_address == src:
                entry.parent_replied_at = now

    def _check_parents(self) -> None:
        now = self.router.scheduler.now
        for entry in list(self.fib.by_group.values()):
            if not entry.has_parent:
                continue
            replied = entry.parent_replied_at
            if replied is not None and now - replied > self.timers.echo_timeout:
                self._parent_failed(entry.group)

    def _child_assert_tick(self) -> None:
        now = self.router.scheduler.now
        for entry in list(self.fib.by_group.values()):
            for child in list(entry.children):
                heard = entry.child_heard_at.get(child)
                if heard is not None and now - heard > self.timers.child_assert_expire:
                    entry.remove_child(child)
                    self._record("child_expired", entry.group, detail=str(child))
            self._maybe_quit(entry.group)

    def _iff_scan_tick(self) -> None:
        # §9 IFF-SCAN-INTERVAL: periodically re-check leaf status.
        for entry in list(self.fib.by_group.values()):
            self._maybe_quit(entry.group)
        # Coverage scan: a member LAN whose serving router died (G-DR
        # failure) needs a fresh join from its D-DR; _maybe_join
        # re-checks DR status, live announcers, and core knowledge.
        for interface in self.router.interfaces:
            if not interface.up:
                continue
            for group in self.igmp.database.groups_on(interface):
                if group in self.fib or group in self.pending:
                    continue
                self._maybe_join(group, interface)

    # -- parent failure and recovery (§6.1) --------------------------------------------------------

    def _parent_failed(self, group: IPv4Address) -> None:
        entry = self.fib.get(group)
        if entry is None:
            return
        self._record("parent_lost", group, detail=str(entry.parent_address))
        entry.clear_parent()
        if not entry.has_children and not self.igmp.any_member_subnet(group):
            self._clear_group(group)
            return
        cores = self.cores_for(group)
        if not cores:
            self._clear_group(group)
            return
        # A fresh attempt, but the retry timer of one still running
        # carries over: it drives the group until the next re-arm.
        previous = self.rejoins.get(group)
        attempt = RejoinAttempt(
            group=group,
            started_at=self.router.scheduler.now,
            cores=cores,
            retry_timer=previous.retry_timer if previous is not None else None,
        )
        self.rejoins[group] = attempt
        self._rejoin_toward(group, entry, cores, attempt.current_core())

    # -- HELLO / neighbour discovery ----------------------------------------

    def _hello_tick(self) -> None:
        """Expire silent neighbours, then HELLO out of each up LAN
        interface that (a) has a live CBT neighbour or (b) was down or
        did not exist at the previous tick, and (c) once per
        ``hello_hold`` (every third tick) out of every up LAN interface.
        Every reader of a HELLO is another CBT router on the LAN, so a
        LAN holding only hosts gets one HELLO per hold time: enough for
        a peer that missed the start-up pair to be found within one."""
        now = self.router.scheduler._now
        neighbours = self.neighbours
        neighbours.expire(now)
        # Forget G-DRs that stopped sending HELLOs: the LAN may need a
        # fresh join from us (the IFF scan picks that up).
        for (vif, group), address in list(self._gdr_known.items()):
            if not neighbours.knows(vif, address):
                del self._gdr_known[(vif, group)]
        self._hello_ticks = (self._hello_ticks + 1) % round(
            neighbours.hold / self.timers.hello_interval
        )
        every_lan = self._hello_ticks == 0
        up_before = self._lans_up
        up = 0
        due = []
        for index, interface in enumerate(self.router.lan_interfaces):
            if interface._up:
                bit = 1 << index
                up |= bit
                if (
                    every_lan
                    or not up_before & bit
                    or neighbours.has_live(interface.vif, now)
                ):
                    due.append(interface)
        self._lans_up = up
        if due:
            self._send_hellos(due)

    def _send_hellos(self, interfaces: Optional[Sequence[Interface]] = None) -> None:
        """HELLOs out of every up interface in ``interfaces`` (default:
        the router's ``lan_interfaces``) whose link is multi-access:
        every reader of a HELLO is a LAN concern, and ECHO keeps a
        point-to-point parent/child alive."""
        # Announce every group we are on-tree for: LAN peers use the
        # announcements to avoid double-serving member subnets (a
        # CBTv2-style extension; the -02/-03 draft leaves the
        # mechanism open).  Groups ride in the five core slots, so
        # large FIBs take several HELLOs.
        groups = self.fib.groups()
        chunks = (
            [tuple(groups)]
            if len(groups) <= 5
            else [tuple(groups[i : i + 5]) for i in range(0, len(groups), 5)]
        )
        if interfaces is None:
            interfaces = self.router.lan_interfaces
        for interface in interfaces:
            if interface._up and interface.link.multi_access:
                for chunk in chunks:
                    self._send_hello(interface, chunk)

    def _send_hello(self, interface: Interface, groups: Tuple[IPv4Address, ...]) -> None:
        """One HELLO out of ``interface`` (which is up), built field by
        field: this is the protocol's most frequent message."""
        counter = self.stats.tx.get(MessageType.HELLO)
        if counter is not None:
            counter.value += 1
        else:
            self.stats.count_sent(MessageType.HELLO)
        address = interface.address
        message = CBTControlMessage(MessageType.HELLO, 0, _ANY_GROUP, address, cores=groups)
        payload = message.encode() if self.wire_format else message
        udp = UDPDatagram(CBT_PORT, CBT_PORT, payload)
        interface.send(IPDatagram(address, ALL_CBT_ROUTERS, PROTO_UDP, udp, 1))

    def _recv_hello(
        self, arrival: Interface, src: IPv4Address, message: CBTControlMessage
    ) -> None:
        now = self.router.scheduler._now
        if self.neighbours.heard(arrival.vif, src, now):
            # Introduce ourselves (and every tree announcement) right
            # away so a restarted neighbour learns the LAN state fast.
            self._send_hellos((arrival,))
        groups = message.cores
        if groups:
            self.neighbours.announce(arrival.vif, src, now, groups)
            self._maybe_yield_lan(arrival, src, groups)

    def _maybe_yield_lan(
        self,
        arrival: Interface,
        announcer: IPv4Address,
        groups: Tuple[IPv4Address, ...],
    ) -> None:
        """Yield a member LAN to its D-DR (duplicate-delivery repair).

        If the LAN's D-DR itself is on-tree for a group, and our only
        reason to hold tree state for that group is this same LAN, we
        are redundant: both of us would deliver onto the LAN.  The
        leaf (us) quits; the D-DR serves the LAN.
        """
        if announcer != self.dr_election.default_dr_address(arrival):
            return
        if self.dr_election.is_default_dr(arrival):
            return
        for group in groups:
            entry = self.fib.get(group)
            if entry is None or entry.has_children or not entry.has_parent:
                continue
            if self.is_core_for(group):
                continue
            member_vifs = set(self.igmp.database.interfaces_with(group))
            if member_vifs and not member_vifs <= {arrival.vif}:
                continue  # we serve other LANs too; stay
            self._record("yield_lan", group, detail=str(announcer))
            if group not in self.quits:
                self._start_quit(group, entry.parent_address)

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, kind: str, group: IPv4Address, detail: str = "") -> None:
        telemetry = self.router.scheduler.telemetry
        telemetry.bus.publish(
            ProtocolEvent(
                time=self.router.scheduler.now,
                kind=kind,
                group=group,
                detail=detail,
                router=self.router.name,
            )
        )
        counter = self.event_counters.get(kind)
        if counter is None:
            counter = telemetry.registry.counter(
                f"cbt.router.{self.router.name}.event.{kind}"
            )
            self.event_counters[kind] = counter
        counter.inc()


#: What :meth:`CBTProtocol._handle_udp` calls per received message type
#: (as ``handler(protocol, arrival, src, message)``): built once, not a
#: dict of nine freshly bound methods per message.
_CONTROL_HANDLERS = {
    MessageType.JOIN_REQUEST: CBTProtocol._recv_join_request,
    MessageType.JOIN_ACK: CBTProtocol._recv_join_ack,
    MessageType.JOIN_NACK: CBTProtocol._recv_join_nack,
    MessageType.QUIT_REQUEST: CBTProtocol._recv_quit_request,
    MessageType.QUIT_ACK: CBTProtocol._recv_quit_ack,
    MessageType.FLUSH_TREE: CBTProtocol._recv_flush,
    MessageType.ECHO_REQUEST: CBTProtocol._recv_echo_request,
    MessageType.ECHO_REPLY: CBTProtocol._recv_echo_reply,
    MessageType.HELLO: CBTProtocol._recv_hello,
}
