"""Links: multi-access subnets and point-to-point links.

A :class:`Subnet` models a broadcast LAN (the spec's S1..S15): a
multicast transmission reaches every other attached interface; a
unicast transmission reaches the attached interface owning the
destination (or, for forwarding through the LAN, the named next hop).
A :class:`PointToPointLink` is a two-interface subnet with a /30-style
prefix; the spec treats tunnels and point-to-point links identically
for forwarding purposes (§5).

A transmission schedules :meth:`Link.deliver`, bound once per link (or
:meth:`Link.deliver_batch` for a LAN fan-out), with ``(receiver(s),
datagram, counters)`` as the event's arguments; it reads the size the
datagram carries (``IPDatagram.wire_size``).  The wire statistics
are plain attributes registered as one attribute family: deliveries
in flight and per-link instruments are the two largest object
populations at n=1000, so neither gets a closure
(docs/PERFORMANCE.md, "Allocation and the collector").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.address import IPv4Address, IPv4Network
from repro.netsim.engine import Scheduler, SchedulerError, Timer
from repro.netsim.nic import Interface
from repro.netsim.packet import IPDatagram, UDPDatagram
from repro.netsim.trace import PacketTrace, TraceRecord
from repro.telemetry import MsgCounters, payload_label

#: The ``netsim.link.<name>.`` family: metric -> the attribute it reads.
_WIRE_METRICS = (
    ("attempts", "attempt_count"),
    ("tx_packets", "tx_count"),
    ("tx_bytes", "tx_bytes"),
    ("fanout", "fanout_count"),
    ("rx_packets", "rx_count"),
    ("queued_time", "queued_time"),
)

#: Default propagation delay in seconds for LAN segments.
DEFAULT_LAN_DELAY = 0.001

#: Default propagation delay for point-to-point / WAN links.
DEFAULT_P2P_DELAY = 0.010


class Link:
    """Base link: a named broadcast domain with delay, cost and loss.

    ``cost`` is the unicast routing metric of traversing the link;
    ``delay`` the propagation latency; ``loss`` an optional predicate
    deciding, per datagram, whether it is dropped in flight.
    """

    #: True where any number of nodes share the wire (a LAN, which
    #: hosts join); False on a two-router link.  CBT sends its HELLO
    #: beacons only on multi-access links, the one place a reader of
    #: them (D-DR election, tree announcements, proxy-ack) can be.
    multi_access = True

    def __init__(
        self,
        name: str,
        network: IPv4Network,
        scheduler: Scheduler,
        trace: Optional[PacketTrace] = None,
        delay: float = DEFAULT_LAN_DELAY,
        cost: float = 1.0,
        loss: Optional[Callable[[IPDatagram], bool]] = None,
        bandwidth_bps: Optional[float] = None,
        jitter: Optional[Callable[[IPDatagram], float]] = None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if cost <= 0:
            raise ValueError(f"cost must be positive, got {cost}")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.name = name
        self.network = network
        self.scheduler = scheduler
        self.trace = trace if trace is not None else PacketTrace(enabled=False)
        self.delay = delay
        self.cost = cost
        self.loss = loss
        #: Optional per-datagram extra propagation delay (delay jitter).
        #: Must be deterministic for replayable runs — see
        #: :class:`repro.netsim.faults.SeededJitter`.
        self.jitter = jitter
        #: Optional delivery gate for systematic exploration: called as
        #: ``gate(link, sender, datagram)`` before the wire is touched;
        #: returning False drops the datagram as an explored choice
        #: (recorded as a ``gate`` drop).  Unlike ``loss`` this is a
        #: *decision point*, not a random process — the explorer
        #: installs one to enumerate deliver/drop branches.
        self.gate: Optional[Callable[["Link", Interface, IPDatagram], bool]] = None
        #: Optional capacity: transmissions serialise at this rate and
        #: queue FIFO behind one another (None = infinite capacity).
        self.bandwidth_bps = bandwidth_bps
        self._busy_until = 0.0
        #: :meth:`deliver`, bound once: every transmission schedules it.
        self._deliver = self.deliver
        self.up = True
        self.interfaces: List[Interface] = []
        self._by_address: Dict[IPv4Address, Interface] = {}
        self.tx_count = 0
        self.tx_bytes = 0
        self.attempt_count = 0
        self.fanout_count = 0
        self.rx_count = 0
        self.queued_time = 0.0
        # Wire-level conservation instruments (see
        # repro.telemetry.conservation): attempts == tx_packets +
        # pre-wire drops; fanout >= rx_packets + late drops.  The wire
        # statistics are counted natively (plain int attributes) and
        # registered as an attribute family, so the hot path pays
        # nothing extra for them; only the per-payload-label counters
        # cost an add.
        self._telemetry = scheduler.telemetry
        self._registry = scheduler.telemetry.registry
        # Shared (msg_type or payload class) -> and protocol number ->
        # MsgCounters caches.
        self._msg_by_key = scheduler.telemetry._msg_by_key
        self._msg_by_proto = scheduler.telemetry._msg_by_proto
        # ``_drop_counters`` (reason -> Counter) is made by the first
        # drop: most links never drop anything.
        self._registry.gauge_attrs(f"netsim.link.{name}.", self, _WIRE_METRICS)
        #: Callbacks fired when this link's topology-relevant state
        #: changes (attachment, up/down, interface flips).  Link-state
        #: routing registers here to invalidate its caches; a tuple,
        #: since a link has one observer.
        self._topology_observers: Tuple[Callable[[], None], ...] = ()

    def close(self) -> None:
        """``Network.close()``: detach every attached interface from
        this link and from its node (the two back-references that tie
        nodes, links and routes into cycles; a detached interface
        refuses to send) and let go of the scheduler, the registry —
        whose attribute family reads this link — and every installed
        hook.  The wire statistics stay, so that family reads what it
        read before."""
        for interface in self.interfaces:
            interface.node = interface.link = None
        self.scheduler = self._telemetry = self._registry = self._deliver = None
        self.gate = self.loss = self.jitter = None
        self._topology_observers = ()

    def add_topology_observer(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to run on any topology-relevant change."""
        self._topology_observers += (callback,)

    def notify_topology_changed(self) -> None:
        for callback in self._topology_observers:
            callback()

    def __repr__(self) -> str:
        members = ",".join(i.node.name for i in self.interfaces)
        return f"{type(self).__name__}({self.name} {self.network} [{members}])"

    def attach(self, interface: Interface) -> None:
        """Connect an interface; its address must be unique on the link."""
        if interface.address in self._by_address:
            raise ValueError(
                f"duplicate address {interface.address} on link {self.name}"
            )
        if interface.network != self.network:
            raise ValueError(
                f"interface network {interface.network} != link network "
                f"{self.network}"
            )
        self.interfaces.append(interface)
        self._by_address[interface.address] = interface
        interface.attach(self)
        self.notify_topology_changed()

    def set_up(self, up: bool) -> None:
        """Administratively raise or fail the link."""
        if up != self.up:
            self.up = up
            self.notify_topology_changed()

    # -- transmission ---------------------------------------------------

    def transmit(
        self,
        sender: Interface,
        datagram: IPDatagram,
        link_dst: Optional[IPv4Address] = None,
    ) -> None:
        """Deliver ``datagram`` after the link delay.

        Multicast (or ``link_dst is None`` broadcast) goes to every
        other attached interface; unicast goes to the interface owning
        ``link_dst`` (defaulting to the datagram's destination when it
        is on this subnet).
        """
        self.attempt_count += 1
        if not self.up:
            self._record("drop", sender, datagram, note="link down")
            self._count_drop(datagram, "link_down")
            return
        if self.gate is not None and not self.gate(self, sender, datagram):
            self._record("drop", sender, datagram, note="gate")
            self._count_drop(datagram, "gate")
            return
        if self.loss is not None and self.loss(datagram):
            self._record("drop", sender, datagram, note="loss")
            self._count_drop(datagram, "loss")
            return
        if datagram.is_multicast or (link_dst is None and datagram.dst not in self.network):
            receivers = [i for i in self.interfaces if i is not sender and i._up]
            fanout = len(receivers)
            receiver = receivers[0] if fanout == 1 else None
        else:
            target = link_dst if link_dst is not None else datagram.dst
            receiver = self._by_address.get(target)
            if receiver is None or not receiver._up:
                # Undeliverable unicast: nothing was put on the wire,
                # so it must not count as a transmission nor occupy the
                # link (counting it inflated overhead metrics and
                # delayed later packets behind a phantom datagram).
                self._record("drop", sender, datagram, note=f"no host {target}")
                self._count_drop(datagram, "no_host")
                return
            receivers = None
            fanout = 1
        size = datagram.wire_size
        self.tx_count += 1
        self.tx_bytes += size
        self.fanout_count += fanout
        # One lookup by what decides the payload label: a control
        # message's ``msg_type``, the protocol number over raw bytes,
        # else the payload's class (every IGMP message, CBTDataPacket).
        inner = datagram.payload
        if type(inner) is UDPDatagram:
            inner = inner.payload
        cache = self._msg_by_key
        key = getattr(inner, "msg_type", None)
        if key is None:
            key = type(inner)
            if key is bytes:
                cache, key = self._msg_by_proto, datagram.proto
        msg = cache.get(key)
        if msg is None:
            label = payload_label(datagram)
            msg = self._telemetry.msg(label)
            if key is not type(inner) or label == key.__name__:
                # (A tunnelled datagram labels by what it carries.)
                cache[key] = msg
        msg.tx.value += 1
        msg.sched.value += fanout
        if self.trace.enabled:
            self._record("tx", sender, datagram)
        extra_delay = 0.0
        if self.bandwidth_bps is not None:
            # FIFO serialisation: wait for the link to free up, then
            # occupy it for the packet's transmission time.
            now = self.scheduler.now
            start = max(now, self._busy_until)
            serialisation = size * 8 / self.bandwidth_bps
            self._busy_until = start + serialisation
            self.queued_time += start - now
            extra_delay = (start - now) + serialisation
        if self.jitter is not None:
            extra_delay += self.jitter(datagram)
            if self.delay + extra_delay < 0:
                raise SchedulerError(
                    f"cannot schedule {self.delay + extra_delay}s in the past"
                )
        # Straight to the queue: only jitter could make the delay
        # negative, and that is checked where it is applied.
        scheduler = self.scheduler
        when = scheduler._now + (self.delay + extra_delay)
        if scheduler.choice_hook is not None:
            # Exploration mode: every delivery is its own tagged choice
            # point, so the resolver can interleave them.
            label = payload_label(datagram)
            for receiver in (receiver,) if receivers is None else receivers:
                scheduler._schedule(
                    Timer(
                        scheduler,
                        when,
                        self._deliver,
                        (receiver, datagram, msg),
                        ("deliver", label, self.name, receiver.node.name, datagram.uid),
                    )
                )
        elif receiver is not None:
            scheduler._schedule(
                Timer(scheduler, when, self._deliver, (receiver, datagram, msg), None)
            )
        elif fanout:
            # Batched fan-out: one scheduled event delivers to every
            # receiver, in attach order.  Order is indistinguishable
            # from per-receiver events — those would occupy consecutive
            # places in their instant's FIFO, nothing able to fire between,
            # exactly like one loop body — but the scheduler handles a
            # LAN-wide broadcast as a single event instead of N.
            scheduler._schedule(
                Timer(scheduler, when, self.deliver_batch, (receivers, datagram, msg), None)
            )

    def deliver(
        self, receiver: Interface, datagram: IPDatagram, msg: MsgCounters
    ) -> None:
        """Scheduled by :meth:`transmit` with its arguments riding on
        the event; the counter bundle resolved at transmit time comes
        along so delivery accounting is a single attribute add."""
        if not self.up or not receiver._up:
            self._record("drop", receiver, datagram, note="down at delivery")
            self._count_drop(datagram, "late")
            return
        self.rx_count += 1
        msg.rx.value += 1
        if self.trace.enabled:
            self.trace.record(
                TraceRecord(
                    self.scheduler._now, "rx", self.name, receiver.node.name, datagram
                )
            )
        receiver.node.receive(receiver, datagram)

    def deliver_batch(
        self, receivers: List[Interface], datagram: IPDatagram, msg: MsgCounters
    ) -> None:
        """Deliver one transmission's same-tick fan-out in attach order."""
        deliver = self._deliver
        for receiver in receivers:
            deliver(receiver, datagram, msg)

    def _count_drop(self, datagram: IPDatagram, reason: str) -> None:
        """Count a drop against the link and the payload label (label
        lookup only happens on the drop; per-reason counters are
        cached — convergence produces a steady trickle of drops)."""
        self._telemetry.msg_dropped(payload_label(datagram), reason)
        counters = getattr(self, "_drop_counters", None)
        if counters is None:
            counters = self._drop_counters = {}
        counter = counters.get(reason)
        if counter is None:
            counter = counters[reason] = self._registry.counter(
                f"netsim.link.{self.name}.drop.{reason}"
            )
        counter.value += 1

    def _record(
        self, kind: str, interface: Interface, datagram: IPDatagram, note: str = ""
    ) -> None:
        if not self.trace.enabled:
            return
        self.trace.record(
            TraceRecord(
                self.scheduler._now, kind, self.name, interface.node.name, datagram, note
            )
        )


class Subnet(Link):
    """Multi-access broadcast LAN (default 1 ms delay)."""


class PointToPointLink(Link):
    """Two-party link (default 10 ms delay).

    Enforces at most two attached interfaces; useful for WAN hops and
    CBT tunnels.
    """

    multi_access = False

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("delay", DEFAULT_P2P_DELAY)
        super().__init__(*args, **kwargs)

    def attach(self, interface: Interface) -> None:
        if len(self.interfaces) >= 2:
            raise ValueError(f"{self.name}: point-to-point link already full")
        super().attach(interface)

    def peer_of(self, interface: Interface) -> Optional[Interface]:
        """The other endpoint, or None if not yet attached."""
        for other in self.interfaces:
            if other is not interface:
                return other
        return None
