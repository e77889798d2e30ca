"""HPIM-DM-style hard-state dense-mode multicast (the ROADMAP comparator).

The CBT paper's argument against dense mode is soft state: DVMRP keeps
per-(source, group) entries alive with periodic re-flooding, so its
steady-state control cost never reaches zero and its recovery story is
"wait for the next flood".  HPIM-DM (arXiv 2002.06635) answers from
inside the dense-mode family: keep the same per-(source, group) tree
shape but make every piece of state *hard* — reliably synchronised
between neighbours with sequence numbers and acknowledgements, elected
per link, and repaired only when neighbour-failure detection (the
hello protocol, the one periodic message left) says a neighbour is
gone.  This module implements that design point faithfully enough to
measure the trade-off the paper argues about:

* per-(source, group) entries with an **upstream interface** chosen by
  RPF and an **AssertWinner-style election** on every downstream link:
  each router with a route to the source advertises its metric in a
  sequence-numbered ``HpimAssert``; the best (metric, address) pair
  wins the link and is the only router that forwards onto it;
* **explicit interest propagation** replacing flood-and-prune's decay:
  downstream routers advertise ``HpimInterest(interested=...)`` on
  their upstream link — hard prune/graft state that changes only when
  membership or the downstream topology changes, never on a timer;
* **reliable synchronisation**: every Assert/Interest carries a
  per-router sequence number, is acknowledged per neighbour
  (``HpimAck``), and is retransmitted until every live neighbour has
  acknowledged it or is declared dead.  A rebooting or newly appeared
  neighbour (fresh generation id in its hello) triggers a full
  re-advertisement of link state — synchronisation on neighbour *up*;
* **recovery driven purely by neighbour-failure detection**: when a
  neighbour's hellos stop past the hold time its claims and interests
  are flushed, elections re-run, and interest is recomputed.  There is
  no periodic re-flood timer and no state expiry anywhere else.

Stats separate the periodic hellos from the hard-state control plane
(`control_messages` counts asserts + interests + acks +
retransmissions, never hellos), mirroring how the DVMRP comparator
excludes probes — so the E2-style overhead comparison measures the
protocols' *reactive* cost on identical fault schedules (see
``repro.harness.baseline_cell``).

Simplifications vs the full HPIM-DM spec, in the spirit of
``dvmrp.py``: unicast routing is shared with the platform's link-state
tables (all the election needs is a metric per source), message
CheckpointSN/snapshot machinery is collapsed into the per-router
sequence number, and the source subnet's originating hosts need no
upstream winner (data enters the LAN directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.dvmrp import DenseModeDomain, DenseModeProtocol, neighbour_state
from repro.core.fingerprint import igmp_state, state_digest
from repro.igmp.router_side import IGMPConfig
from repro.netsim.address import IPv4Address
from repro.netsim.engine import PeriodicTimer
from repro.netsim.nic import Interface
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_IGMP, Record
from repro.routing.table import Router
from repro.topology.builder import Network

#: Simulator-local protocol number for HPIM-DM control messages.
PROTO_HPIM = 201

#: All-HPIM-routers group (PIM's 224.0.0.13), link-local.
ALL_HPIM_ROUTERS = IPv4Address("224.0.0.13")

#: Metric advertised to withdraw an assert claim ("I cannot reach the
#: source / I am downstream here").
INFINITE_METRIC = float("inf")

DEFAULT_HELLO_INTERVAL = 5.0
DEFAULT_NEIGHBOUR_HOLD = 17.5
DEFAULT_RTX_INTERVAL = 1.0


# -- control messages --------------------------------------------------------
#
# Class names double as telemetry / explorer gate labels (payload_label
# falls back to the class name), so they are prefixed and CamelCased.


class HpimHello(Record):
    """Neighbour keepalive; ``gen_id`` changes on restart."""

    gen_id: int

    def size_bytes(self) -> int:
        return 12


class HpimAssert(Record):
    """Sequence-numbered upstream-election claim for one (S, G) link."""

    source: IPv4Address
    group: IPv4Address
    metric: float
    seq: int

    def size_bytes(self) -> int:
        return 24


class HpimInterest(Record):
    """Sequence-numbered downstream interest (graft/prune) for (S, G)."""

    source: IPv4Address
    group: IPv4Address
    interested: bool
    seq: int

    def size_bytes(self) -> int:
        return 20


class HpimAck(Record):
    """Per-neighbour acknowledgement of an Assert or Interest."""

    source: IPv4Address
    group: IPv4Address
    kind: str  # "assert" | "interest"
    seq: int

    def size_bytes(self) -> int:
        return 16


@dataclass
class TreeEntry:
    """Hard (S, G) state: upstream choice + per-link synchronised views."""

    source: IPv4Address
    group: IPv4Address
    upstream_vif: Optional[int]
    #: vif -> {neighbour address -> (claimed metric, seq)} — their asserts.
    claims: Dict[int, Dict[IPv4Address, Tuple[float, int]]] = field(
        default_factory=dict
    )
    #: vif -> {neighbour address -> (interested, seq)} — their interests.
    interests: Dict[int, Dict[IPv4Address, Tuple[bool, int]]] = field(
        default_factory=dict
    )
    #: vif -> metric we last advertised there (INFINITE_METRIC = withdrawn).
    my_assert: Dict[int, float] = field(default_factory=dict)
    #: vif -> interest we last advertised there (None = never advertised).
    my_interest: Dict[int, bool] = field(default_factory=dict)

    def state_size(self) -> int:
        """Stored items: the entry plus each synchronised neighbour
        record — the E1 router-state metric."""
        return (
            1
            + sum(len(t) for t in self.claims.values())
            + sum(len(t) for t in self.interests.values())
        )


@dataclass
class _Pending:
    """An advertisement awaiting acknowledgement from live neighbours."""

    message: object
    vif: int
    waiting: Set[IPv4Address]


@dataclass
class HPIMStats:
    data_forwards: int = 0
    beacons_sent: int = 0
    asserts_sent: int = 0
    interests_sent: int = 0
    acks_sent: int = 0
    retransmissions: int = 0
    rpf_drops: int = 0
    uninterested_drops: int = 0

    def control_messages(self) -> int:
        """Hard-state control cost; hellos (the only periodic message)
        are excluded, mirroring DVMRP's probe exclusion."""
        return (
            self.asserts_sent
            + self.interests_sent
            + self.acks_sent
            + self.retransmissions
        )


class HPIMDMProtocol(DenseModeProtocol):
    """Hard-state dense-mode engine for one router."""

    proto = PROTO_HPIM
    group = ALL_HPIM_ROUTERS

    def __init__(
        self,
        router: Router,
        hello_interval: float = DEFAULT_HELLO_INTERVAL,
        neighbour_hold: float = DEFAULT_NEIGHBOUR_HOLD,
        rtx_interval: float = DEFAULT_RTX_INTERVAL,
        igmp_config: Optional[IGMPConfig] = None,
    ) -> None:
        self.rtx_interval = rtx_interval
        self.stats = HPIMStats()
        #: (vif, kind, source, group) -> _Pending (unacked advertisement).
        self._pending: Dict[Tuple[int, str, IPv4Address, IPv4Address], _Pending] = {}
        self._seq = 0
        #: State changes so far; the quiescence counter.
        self.state_changes = 0
        self._rtx_ticker: Optional[PeriodicTimer] = None
        super().__init__(
            router, hello_interval, neighbour_hold, HpimHello(gen_id=1), igmp_config
        )

    def stop(self) -> None:
        super().stop()
        if self._rtx_ticker is not None:
            self._rtx_ticker.stop()
            self._rtx_ticker = None

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _tick(self) -> None:
        self._send_beacons()
        for vif, addr in self.neighbours.expire(self.router.scheduler.now):
            self._neighbour_down(vif, addr)
        # Hard state does not expire, but routes drift after topology
        # changes: re-evaluate every entry so metric changes and
        # upstream moves are re-advertised (changes only, no re-flood).
        for entry in list(self.entries.values()):
            self._reevaluate(entry)

    def _neighbour_down(self, vif: int, addr: IPv4Address) -> None:
        """Flush a dead neighbour everywhere: claims, interests, acks."""
        self.state_changes += 1
        for key in sorted(self._pending, key=str):
            pending = self._pending[key]
            if pending.vif == vif:
                pending.waiting.discard(addr)
                if not pending.waiting:
                    del self._pending[key]
        for entry in list(self.entries.values()):
            changed = False
            if entry.claims.get(vif, {}).pop(addr, None) is not None:
                changed = True
            if entry.interests.get(vif, {}).pop(addr, None) is not None:
                changed = True
            if changed:
                self._reevaluate(entry)

    # -- control-plane receive -------------------------------------------

    def _handle_control(
        self, node: Node, interface: Interface, datagram: IPDatagram
    ) -> None:
        message = datagram.payload
        if isinstance(message, HpimHello):
            self._recv_hello(interface, datagram.src, message)
        elif isinstance(message, HpimAssert):
            self._recv_assert(interface, datagram.src, message)
        elif isinstance(message, HpimInterest):
            self._recv_interest(interface, datagram.src, message)
        elif isinstance(message, HpimAck):
            self._recv_ack(interface, datagram.src, message)

    def _recv_hello(
        self, arrival: Interface, src: IPv4Address, hello: HpimHello
    ) -> None:
        vif = arrival.vif
        now = self.router.scheduler.now
        fresh = self.neighbours.heard(vif, src, now, hello.gen_id)
        if fresh is None:
            # Restarted neighbour: its synchronised state is gone.
            self._neighbour_down(vif, src)
            self.neighbours.forget(vif, src)
            self.neighbours.heard(vif, src, now, hello.gen_id)
        elif not fresh:
            return
        self.state_changes += 1
        self._sync_link(vif, src)

    def _sync_link(self, vif: int, addr: IPv4Address) -> None:
        """A neighbour (re)appeared: re-send our full link state to it
        with fresh sequence numbers, and re-evaluate (a new downstream
        router flips flood-default interest on the link)."""
        for entry in list(self.entries.values()):
            metric = entry.my_assert.get(vif)
            if metric is not None:
                self._advertise_assert(entry, vif, metric, only={addr})
            interest = entry.my_interest.get(vif)
            if interest is not None:
                self._advertise_interest(entry, vif, interest, only={addr})
        for entry in list(self.entries.values()):
            self._reevaluate(entry)

    def _recv_assert(
        self, arrival: Interface, src: IPv4Address, message: HpimAssert
    ) -> None:
        entry = self._entry_for(message.source, message.group)
        self._send_ack(arrival, src, message.source, message.group, "assert", message.seq)
        if entry is None:
            return
        table = entry.claims.setdefault(arrival.vif, {})
        known = table.get(src)
        if known is not None and known[1] >= message.seq:
            return  # stale or duplicate (reordered retransmission)
        # Withdrawals (infinite metric) stay in the table with their
        # sequence number so a reordered older claim cannot resurrect
        # the neighbour; the election filters them out.
        table[src] = (message.metric, message.seq)
        self.state_changes += 1
        self._reevaluate(entry)

    def _recv_interest(
        self, arrival: Interface, src: IPv4Address, message: HpimInterest
    ) -> None:
        entry = self._entry_for(message.source, message.group)
        self._send_ack(
            arrival, src, message.source, message.group, "interest", message.seq
        )
        if entry is None:
            return
        table = entry.interests.setdefault(arrival.vif, {})
        known = table.get(src)
        if known is not None and known[1] >= message.seq:
            return
        table[src] = (message.interested, message.seq)
        self.state_changes += 1
        self._reevaluate(entry)

    def _recv_ack(
        self, arrival: Interface, src: IPv4Address, message: HpimAck
    ) -> None:
        key = (arrival.vif, message.kind, message.source, message.group)
        pending = self._pending.get(key)
        if pending is None or pending.message.seq != message.seq:
            return
        pending.waiting.discard(src)
        if not pending.waiting:
            del self._pending[key]
            if not self._pending and self._rtx_ticker is not None:
                self._rtx_ticker.stop()
                self._rtx_ticker = None

    def _send_ack(
        self,
        arrival: Interface,
        dst: IPv4Address,
        source: IPv4Address,
        group: IPv4Address,
        kind: str,
        seq: int,
    ) -> None:
        if not arrival.up:
            return
        self.stats.acks_sent += 1
        arrival.send(
            IPDatagram(
                src=arrival.address,
                dst=dst,
                proto=PROTO_HPIM,
                payload=HpimAck(source=source, group=group, kind=kind, seq=seq),
                ttl=1,
            ),
            link_dst=dst,
        )

    # -- reliable advertisement ------------------------------------------

    def _advertise(
        self,
        entry: TreeEntry,
        vif: int,
        kind: str,
        message,
        only: Optional[Set[IPv4Address]] = None,
    ) -> None:
        # ``Node.add_interface`` numbers interfaces by position and none
        # is ever removed, so a vif indexes ``router.interfaces``.
        interface = self.router.interfaces[vif]
        if not interface.up:
            return
        live = self.neighbours.live(vif, self.router.scheduler.now)
        audience = live if only is None else live & only
        key = (vif, kind, entry.source, entry.group)
        previous = self._pending.get(key)
        if previous is not None:
            # A newer advertisement supersedes the old message, but the
            # old audience still owes us an ack for the *current* state:
            # carry the still-live laggards into the new pending set so
            # a targeted re-sync (only=) cannot silently drop them.
            audience |= previous.waiting & live
        if not audience:
            self._pending.pop(key, None)
            return  # loner link: nothing to synchronise with
        if kind == "assert":
            self.stats.asserts_sent += 1
        else:
            self.stats.interests_sent += 1
        self._pending[key] = _Pending(
            message=message, vif=vif, waiting=set(audience)
        )
        self._arm_rtx()
        interface.send(
            IPDatagram(
                src=interface.address,
                dst=ALL_HPIM_ROUTERS,
                proto=PROTO_HPIM,
                payload=message,
                ttl=1,
            )
        )

    def _advertise_assert(
        self,
        entry: TreeEntry,
        vif: int,
        metric: float,
        only: Optional[Set[IPv4Address]] = None,
    ) -> None:
        entry.my_assert[vif] = metric
        self.state_changes += 1
        self._advertise(
            entry,
            vif,
            "assert",
            HpimAssert(
                source=entry.source,
                group=entry.group,
                metric=metric,
                seq=self._next_seq(),
            ),
            only=only,
        )

    def _advertise_interest(
        self,
        entry: TreeEntry,
        vif: int,
        interested: bool,
        only: Optional[Set[IPv4Address]] = None,
    ) -> None:
        entry.my_interest[vif] = interested
        self.state_changes += 1
        self._advertise(
            entry,
            vif,
            "interest",
            HpimInterest(
                source=entry.source,
                group=entry.group,
                interested=interested,
                seq=self._next_seq(),
            ),
            only=only,
        )

    def _arm_rtx(self) -> None:
        if self._rtx_ticker is None:
            self._rtx_ticker = PeriodicTimer(
                self.router.scheduler, self.rtx_interval, self._retransmit
            )
            self._rtx_ticker.start()

    def _retransmit(self) -> None:
        """Resend every unacked advertisement to its surviving audience."""
        for key in sorted(self._pending, key=str):
            pending = self._pending.get(key)
            if pending is None:
                continue
            pending.waiting &= self.neighbours.live(pending.vif, self.router.scheduler.now)
            if not pending.waiting:
                del self._pending[key]
                continue
            interface = self.router.interfaces[pending.vif]
            if not interface.up:
                continue  # audience will age out via the hold time
            self.stats.retransmissions += 1
            self.state_changes += 1
            interface.send(
                IPDatagram(
                    src=interface.address,
                    dst=ALL_HPIM_ROUTERS,
                    proto=PROTO_HPIM,
                    payload=pending.message,
                    ttl=1,
                )
            )
        if not self._pending and self._rtx_ticker is not None:
            self._rtx_ticker.stop()
            self._rtx_ticker = None

    # -- election + interest evaluation ----------------------------------

    def election_winner(
        self, entry: TreeEntry, vif: int
    ) -> Optional[IPv4Address]:
        """Best (metric, address) claim on the link, ours included."""
        interface = self.router.interfaces[vif]
        candidates: List[Tuple[float, IPv4Address]] = [
            (metric, addr)
            for addr, (metric, _seq) in entry.claims.get(vif, {}).items()
            if metric < INFINITE_METRIC
        ]
        my_metric = entry.my_assert.get(vif, INFINITE_METRIC)
        if interface.up and my_metric < INFINITE_METRIC:
            candidates.append((my_metric, interface.address))
        if not candidates:
            return None
        return min(candidates)[1]

    def i_am_winner(self, entry: TreeEntry, vif: int) -> bool:
        return self.election_winner(entry, vif) == self.router.interfaces[vif].address

    def _link_wants_data(self, entry: TreeEntry, vif: int) -> bool:
        """Dense-mode forwarding predicate for a downstream link."""
        interface = self.router.interfaces[vif]
        if not interface.up:
            return False
        if self.igmp.database.has_members(interface, entry.group):
            return True
        interested = entry.interests.get(vif, {})
        claims = entry.claims.get(vif, {})
        for addr in self.neighbours.live(vif, self.router.scheduler.now):
            known = interested.get(addr)
            if known is not None:
                if known[0]:
                    return True
                continue  # explicit NoInterest: hard prune
            claim = claims.get(addr)
            if claim is not None and claim[0] < INFINITE_METRIC:
                # A co-upstream candidate (it asserted a finite metric)
                # pulls data via its own upstream, never from us; only
                # an explicit Interest from it counts.
                continue
            # Flood-first with hard state: a downstream router that has
            # not yet said NoInterest still gets data.
            return True
        return False

    def _reevaluate(self, entry: TreeEntry) -> None:
        """Recompute upstream, per-link role, and interest; advertise
        only the diffs (this is the no-re-flood property: quiescent
        state advertises nothing)."""
        route = self.router.best_route(entry.source)
        if route is None:
            upstream, metric = None, INFINITE_METRIC
        else:
            upstream, metric = route.interface.vif, route.metric
        if upstream != entry.upstream_vif:
            self.state_changes += 1
            entry.upstream_vif = upstream
        for interface in self.router.interfaces:
            vif = interface.vif
            local_source = interface.on_same_network(entry.source)
            if vif == upstream or local_source or not interface.up:
                desired_assert = INFINITE_METRIC
            else:
                desired_assert = metric
            if entry.my_assert.get(vif, INFINITE_METRIC) != desired_assert:
                self._advertise_assert(entry, vif, desired_assert)
            if vif == upstream and not local_source:
                desired_interest = self._my_interest(entry)
            else:
                desired_interest = False
            previous = entry.my_interest.get(vif)
            if previous is None and desired_interest is False and vif != upstream:
                continue  # never advertised on a downstream link: stay silent
            if previous != desired_interest:
                self._advertise_interest(entry, vif, desired_interest)

    def _my_interest(self, entry: TreeEntry) -> bool:
        """Do we need data from upstream?  Yes when any downstream link
        we win (or any attached member) wants it."""
        for interface in self.router.interfaces:
            vif = interface.vif
            if vif == entry.upstream_vif or not interface.up:
                continue
            if self.igmp.database.has_members(interface, entry.group):
                return True
            if self.i_am_winner(entry, vif) and self._link_wants_data(entry, vif):
                return True  # winner of a link whose downstream wants data
        return False

    # -- entry management -------------------------------------------------

    def _entry_for(
        self, source: IPv4Address, group: IPv4Address
    ) -> Optional[TreeEntry]:
        key = (source, group)
        entry = self.entries.get(key)
        if entry is None:
            upstream = self._rpf_vif(source)
            if upstream is None:
                return None
            entry = TreeEntry(source=source, group=group, upstream_vif=upstream)
            self.entries[key] = entry
            self.state_changes += 1
            self._reevaluate(entry)
        return entry

    def _on_membership_change(
        self, interface: Interface, group: IPv4Address, present: bool
    ) -> None:
        for entry in list(self.entries.values()):
            if entry.group == group:
                self.state_changes += 1
                self._reevaluate(entry)

    # -- data plane --------------------------------------------------------

    def forward_multicast(
        self, router: Router, arrival: Interface, datagram: IPDatagram
    ) -> None:
        if datagram.proto in (PROTO_IGMP, PROTO_HPIM):
            return
        source = datagram.src
        group = datagram.dst
        local_origin = arrival.on_same_network(source)
        entry = self._entry_for(source, group)
        if entry is None:
            return
        if not local_origin:
            if entry.upstream_vif != arrival.vif:
                self.stats.rpf_drops += 1
                return
            # On a shared upstream LAN only the elected winner's copy
            # is ours to forward; we accept regardless (the winner is
            # upstream of us by construction) but a LAN we *lost*
            # downstream must not see our copy — handled below by the
            # winner check per egress link.
            if datagram.ttl <= 1:
                return
            datagram = datagram.decremented()
        for interface in self.router.interfaces:
            vif = interface.vif
            if vif == arrival.vif or not interface.up:
                continue
            if not self.i_am_winner(entry, vif):
                continue  # another router won this link's election
            if not self._link_wants_data(entry, vif):
                if self.neighbours.has_live(vif, self.router.scheduler.now):
                    self.stats.uninterested_drops += 1
                continue  # hard-pruned link or silent leaf LAN
            self.stats.data_forwards += 1
            interface.send(datagram)


class HPIMDMDomain(DenseModeDomain):
    """A Network (or a named subset) running hard-state dense mode."""

    def __init__(
        self,
        network: Network,
        hello_interval: float = DEFAULT_HELLO_INTERVAL,
        neighbour_hold: float = DEFAULT_NEIGHBOUR_HOLD,
        rtx_interval: float = DEFAULT_RTX_INTERVAL,
        igmp_config: Optional[IGMPConfig] = None,
    ) -> None:
        engine = partial(
            HPIMDMProtocol,
            hello_interval=hello_interval,
            neighbour_hold=neighbour_hold,
            rtx_interval=rtx_interval,
            igmp_config=igmp_config,
        )
        super().__init__(network, engine)

    def hello_messages(self) -> int:
        return sum(p.stats.beacons_sent for p in self.protocols.values())

    def events_total(self) -> int:
        """State changes domain-wide; the quiescence counter."""
        return sum(p.state_changes for p in self.protocols.values())

    def pending_total(self) -> int:
        """Unacked advertisements across the domain (0 when synchronised)."""
        return sum(len(p._pending) for p in self.protocols.values())

    def convergence_findings(self) -> List[str]:
        """Elections converged (:meth:`election_findings`) and every
        advertisement acknowledged."""
        findings = self.election_findings()
        pending = self.pending_total()
        if pending:
            findings.append(f"{pending} advertisements still unacknowledged after settle")
        return findings

    def transition_findings(self, check_loops: bool) -> List[str]:
        """Hard invariants, valid even mid-election: a router never
        synchronises state with itself, and an unacked advertisement
        must have a live retransmit ticker driving it (the hard-state
        analogue of CBT's stale quit-retry class).  There is no parent
        pointer to loop, so ``check_loops`` has nothing to switch."""
        findings: List[str] = []
        for name in sorted(self.protocols):
            protocol = self.protocols[name]
            own = {interface.address for interface in protocol.router.interfaces}
            for vif, table in sorted(protocol.neighbours.items()):
                for addr in sorted(own & set(table), key=str):
                    findings.append(f"{name}: lists itself ({addr}) as a neighbour on vif {vif}")
            for entry in protocol.entries.values():
                for what, tables in (("assert claim", entry.claims), ("interest", entry.interests)):
                    for vif, table in sorted(tables.items()):
                        for addr in sorted(own & set(table), key=str):
                            findings.append(
                                f"{name}: stores its own {what} ({addr}) g={entry.group}"
                            )
            if protocol._pending and protocol._rtx_ticker is None:
                findings.append(f"{name}: unacked advertisements with no retransmit ticker")
        return findings

    def fingerprint(self) -> str:
        """Stable hash of the domain's hard state and in-flight tagged
        deliveries (:func:`repro.core.fingerprint.state_digest`)."""
        return state_digest(self, _protocol_state)

    # -- election census ---------------------------------------------------

    def _link_vifs(self) -> Dict[str, List[Tuple[str, int]]]:
        """link name -> [(router name, vif)] for attached domain routers."""
        out: Dict[str, List[Tuple[str, int]]] = {}
        for link_name in sorted(self.network.links):
            link = self.network.links[link_name]
            attached = []
            for interface in link.interfaces:
                name = interface.node.name
                if name in self.protocols:
                    attached.append((name, interface.vif))
            if attached:
                out[link_name] = attached
        return out

    def upstream_winners(
        self, source: IPv4Address, group: IPv4Address
    ) -> Dict[str, List[str]]:
        """link name -> routers that believe they won the (S, G) link."""
        winners: Dict[str, List[str]] = {}
        for link_name, attached in self._link_vifs().items():
            claimants = []
            for name, vif in attached:
                protocol = self.protocols[name]
                entry = protocol.entries.get((source, group))
                if entry is None:
                    continue
                if entry.upstream_vif == vif:
                    continue  # downstream role on this link
                if protocol.i_am_winner(entry, vif):
                    claimants.append(name)
            winners[link_name] = sorted(claimants)
        return winners

    def election_findings(self) -> List[str]:
        """Election-convergence oracle: every link that some router
        treats as its (S, G) upstream must have exactly one router
        believing it won that link — unless the source itself lives on
        the link (data enters directly) or the link lost all its
        upstream-capable routers (an isolated fragment has no winner to
        elect).  Also flags any dead neighbour still holding claims."""
        findings: List[str] = []
        keys = sorted(
            {key for p in self.protocols.values() for key in p.entries},
            key=lambda k: (str(k[0]), str(k[1])),
        )
        link_vifs = self._link_vifs()
        for source, group in keys:
            winners = self.upstream_winners(source, group)
            for link_name, attached in link_vifs.items():
                link = self.network.links[link_name]
                if any(
                    interface.on_same_network(source)
                    for interface in link.interfaces
                ):
                    continue  # source LAN: no winner needed
                downstream = [
                    name
                    for name, vif in attached
                    if (entry := self.protocols[name].entries.get((source, group)))
                    is not None
                    and entry.upstream_vif == vif
                    and any(i.up for i in self.protocols[name].router.interfaces)
                ]
                if not downstream:
                    continue
                claimants = winners[link_name]
                capable = [
                    name
                    for name, vif in attached
                    if name not in downstream
                    and self.protocols[name].entries.get((source, group))
                    is not None
                ]
                if len(claimants) > 1:
                    findings.append(
                        f"link {link_name} (s={source}, g={group}): "
                        f"{len(claimants)} routers claim the election: "
                        f"{', '.join(claimants)}"
                    )
                elif not claimants and capable:
                    findings.append(
                        f"link {link_name} (s={source}, g={group}): no "
                        f"elected upstream despite capable routers "
                        f"{', '.join(sorted(capable))}"
                    )
        now = self.network.scheduler.now
        for name in sorted(self.protocols):
            protocol = self.protocols[name]
            for vif, table in sorted(protocol.neighbours.items()):
                live = protocol.neighbours.live(vif, now)
                for entry in protocol.entries.values():
                    for addr in entry.claims.get(vif, {}):
                        if addr not in live and addr in table:
                            findings.append(
                                f"{name}: stale claim from silent "
                                f"neighbour {addr} on vif {vif}"
                            )
        return findings


def _protocol_state(name: str, protocol: HPIMDMProtocol) -> Tuple:
    """Canonical tuple of one HPIM-DM router's hard state.

    Sequence numbers and timestamps are excluded: two states differing
    only in seq counters or last-heard times make identical
    protocol decisions from here on (seqs only order/dedup messages),
    so folding them together is exactly the kind of equivalence the
    pruning heuristic wants.  Unacked advertisements are included by
    content and audience — a pending retransmission *does* change the
    continuation.
    """
    entry_part = tuple(
        (
            str(entry.source),
            str(entry.group),
            entry.upstream_vif,
            tuple(
                (vif, tuple(sorted((str(a), m) for a, (m, _s) in table.items())))
                for vif, table in sorted(entry.claims.items())
            ),
            tuple(
                (vif, tuple(sorted((str(a), i) for a, (i, _s) in table.items())))
                for vif, table in sorted(entry.interests.items())
            ),
            tuple(sorted(entry.my_assert.items())),
            tuple(sorted(entry.my_interest.items())),
        )
        for _key, entry in sorted(
            protocol.entries.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        )
    )
    pending_part = tuple(
        sorted(
            (
                vif,
                kind,
                str(source),
                str(group),
                type(pending.message).__name__,
                getattr(pending.message, "metric", None),
                getattr(pending.message, "interested", None),
                tuple(sorted(str(addr) for addr in pending.waiting)),
            )
            for (vif, kind, source, group), pending in protocol._pending.items()
        )
    )
    return (name, entry_part, neighbour_state(protocol), pending_part, igmp_state(protocol))
