"""Routing tables, routed nodes, hosts, and routers.

:class:`RoutedNode` adds IP origination/forwarding on top of
:class:`repro.netsim.node.Node`.  :class:`Router` forwards unicast
datagrams via its table and hands multicast datagrams to whichever
multicast routing protocol is attached.  :class:`Host` is deliberately
dumb: it multicasts locally and unicasts via a default gateway, exactly
the capability set the spec assumes of end systems.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from repro.netsim.address import (
    LINK_LOCAL_HIGH_BITS,
    NETMASKS,
    IPv4Address,
    IPv4Network,
)
from repro.netsim.engine import Scheduler
from repro.netsim.nic import Interface
from repro.netsim.node import Node
from repro.netsim.packet import IPDatagram, PROTO_CBT, PROTO_IGMP
from repro.telemetry import payload_label as _payload_label


class Route:
    """One routing table entry.

    ``next_hop`` is None for directly connected prefixes.  ``metric``
    is the total path cost, used by tests asserting on path choice.

    Plain ``__slots__`` class rather than a dataclass: SPF installs one
    per (router, link) pair, so construction is a measured hot path.
    """

    __slots__ = ("prefix", "interface", "next_hop", "metric")

    def __init__(
        self,
        prefix: IPv4Network,
        interface: Interface,
        next_hop: Optional[IPv4Address],
        metric: float,
    ) -> None:
        self.prefix = prefix
        self.interface = interface
        self.next_hop = next_hop
        self.metric = metric

    def __repr__(self) -> str:
        return (
            f"Route(prefix={self.prefix!r}, interface={self.interface!r}, "
            f"next_hop={self.next_hop!r}, metric={self.metric!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Route):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.interface == other.interface
            and self.next_hop == other.next_hop
            and self.metric == other.metric
        )


#: Bound on the per-destination memo cache; cleared wholesale when hit
#: so a scan over a huge address space cannot grow memory unboundedly.
_LOOKUP_CACHE_MAX = 1 << 16

_MISS = object()


class RoutingTable:
    """Longest-prefix-match table (prefixes in the simulator are disjoint).

    Lookups are served from a prefix-length index — per query, one dict
    probe per *distinct* prefix length present (longest first) instead
    of a scan over every route — fronted by a per-destination memo
    cache.  Both structures are maintained by ``install``/``remove``/
    ``clear``; any mutation invalidates the memo cache.
    """

    __slots__ = (
        "_routes",
        "_by_prefixlen",
        "_prefixlens",
        "_lookup_cache",
        "_provider",
        "_resolver",
    )

    def __init__(self) -> None:
        # (int(network address), prefixlen) -> Route; int keys hash far
        # faster than IPv4Network and SPF installs hundreds of thousands.
        self._routes: Dict[Tuple[int, int], Route] = {}
        # prefixlen -> {int(network address) -> Route}
        self._by_prefixlen: Dict[int, Dict[int, Route]] = {}
        self._prefixlens: List[int] = []  # sorted descending (longest first)
        self._lookup_cache: Dict[int, Optional[Route]] = {}
        # Deferred (re)population hook; see set_provider().
        self._provider: Optional[Callable[[], None]] = None
        # Per-destination resolution hook; see set_resolver().
        self._resolver: Optional[Callable[[int], Optional[Route]]] = None

    def set_provider(self, provider: Callable[[], None]) -> None:
        """Defer population: drop current contents and run ``provider``
        on first access instead.

        SPF recomputation uses this so routers whose tables are never
        consulted between reconvergences pay nothing.  The provider
        must capture a snapshot of whatever state it needs — it runs at
        first access, which may be after further topology changes.
        """
        self._provider = provider
        self._resolver = None
        self._routes = {}
        self._by_prefixlen = {}
        self._prefixlens = []
        self._invalidate_memo()

    def set_resolver(self, resolver: Callable[[int], Optional[Route]]) -> None:
        """Defer population *per destination*: drop current contents and
        ask ``resolver(int(destination))`` on each index miss.

        The large-topology SPF mode uses this so a router only ever pays
        for the destinations it actually forwards toward (typically just
        the core), instead of a full table install.  Resolved routes are
        held by the memo cache, not ``_routes``, so ``routes()`` /
        iteration reflect only explicitly installed entries — acceptable
        because this mode is reserved for bulk topologies where nothing
        audits full tables.  Like providers, the resolver must snapshot
        the state it needs.
        """
        self._provider = None
        self._resolver = resolver
        self._routes = {}
        self._by_prefixlen = {}
        self._prefixlens = []
        self._invalidate_memo()

    def _invalidate_memo(self) -> None:
        if self._lookup_cache:
            self._lookup_cache = {}

    def _materialise(self) -> None:
        provider = self._provider
        if provider is not None:
            self._provider = None
            provider()

    def __len__(self) -> int:
        self._materialise()
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        self._materialise()
        return iter(self._routes.values())

    def install(self, route: Route) -> None:
        self._materialise()
        prefix = route.prefix
        self._install_key(int(prefix.network_address), prefix.prefixlen, route)

    def _install_key(self, net_int: int, plen: int, route: Route) -> None:
        """Install with the prefix key precomputed (SPF fast path)."""
        self._routes[(net_int, plen)] = route
        bucket = self._by_prefixlen.get(plen)
        if bucket is None:
            bucket = self._by_prefixlen[plen] = {}
            self._prefixlens = sorted(self._by_prefixlen, reverse=True)
        bucket[net_int] = route
        self._invalidate_memo()

    def replace_all(self, items: Iterable[Tuple[int, int, Route]]) -> None:
        """Atomically replace the whole table (SPF bulk path).

        ``items`` yields ``(int(network address), prefixlen, route)``
        triples; equivalent to ``clear()`` followed by ``install`` per
        route, without per-route bookkeeping overhead.
        """
        self._provider = None
        routes: Dict[Tuple[int, int], Route] = {}
        by_plen: Dict[int, Dict[int, Route]] = {}
        for net_int, plen, route in items:
            routes[(net_int, plen)] = route
            bucket = by_plen.get(plen)
            if bucket is None:
                bucket = by_plen[plen] = {}
            bucket[net_int] = route
        self._routes = routes
        self._by_prefixlen = by_plen
        self._prefixlens = sorted(by_plen, reverse=True)
        self._invalidate_memo()

    def remove(self, prefix: IPv4Network) -> None:
        self._materialise()
        net_int, plen = int(prefix.network_address), prefix.prefixlen
        if self._routes.pop((net_int, plen), None) is None:
            return
        bucket = self._by_prefixlen[plen]
        bucket.pop(net_int, None)
        if not bucket:
            del self._by_prefixlen[plen]
            self._prefixlens = sorted(self._by_prefixlen, reverse=True)
        self._invalidate_memo()

    def clear(self) -> None:
        # A pending provider is simply dropped: the eager-equivalent
        # sequence (populate, then clear) also ends with an empty table.
        self._provider = None
        self._resolver = None
        self._routes = {}
        self._by_prefixlen = {}
        self._prefixlens = []
        self._lookup_cache = {}

    def lookup(self, destination: IPv4Address) -> Optional[Route]:
        """Best route for ``destination`` (longest prefix wins)."""
        dest_int = int(destination)
        cached = self._lookup_cache.get(dest_int, _MISS)
        if cached is not _MISS:
            return cached  # type: ignore[return-value]
        best = self._lookup_index(dest_int)
        if len(self._lookup_cache) >= _LOOKUP_CACHE_MAX:
            self._lookup_cache = {}
        self._lookup_cache[dest_int] = best
        return best

    def _lookup_index(self, dest_int: int) -> Optional[Route]:
        """Uncached longest-prefix match via the prefix-length index."""
        if self._provider is not None:
            self._materialise()
        for plen in self._prefixlens:
            route = self._by_prefixlen[plen].get(dest_int & NETMASKS[plen])
            if route is not None:
                return route
        if self._resolver is not None:
            return self._resolver(dest_int)
        return None

    def lookup_linear(self, destination: IPv4Address) -> Optional[Route]:
        """Reference implementation: naive O(#routes) scan.

        Kept for property tests asserting the indexed/memoized
        :meth:`lookup` agrees with it on arbitrary tables.
        """
        self._materialise()
        best: Optional[Route] = None
        for route in self._routes.values():
            if destination in route.prefix:
                if best is None or route.prefix.prefixlen > best.prefix.prefixlen:
                    best = route
        return best

    def routes(self) -> List[Route]:
        self._materialise()
        return list(self._routes.values())


class RoutedNode(Node):
    """Node that can originate and locally deliver IP datagrams.  How
    unicast leaves it is its subclass's ``_transmit_unicast``: a host
    sends to its default gateway and holds no routing table."""

    # -- origination -----------------------------------------------------

    def originate(self, datagram: IPDatagram) -> None:
        """Send a locally created datagram toward its destination."""
        if datagram.is_multicast:
            self._originate_multicast(datagram)
        else:
            self._transmit_unicast(datagram)

    def _originate_multicast(self, datagram: IPDatagram) -> None:
        """Default: multicast out every interface (overridden by hosts)."""
        for interface in self.interfaces:
            interface.send(datagram)


class Host(RoutedNode):
    """End system: one interface, multicast + default-gateway unicast.

    Hosts receive multicast datagrams for groups they have joined (the
    IGMP host module maintains ``joined_groups``) and link-local
    multicasts such as IGMP queries.
    """

    def __init__(self, name: str, scheduler: Scheduler) -> None:
        super().__init__(name, scheduler)
        self.default_gateway: Optional[IPv4Address] = None
        self.joined_groups: Set[IPv4Address] = set()
        self.delivered: List[IPDatagram] = []
        #: Unicast datagrams addressed to this host.
        self.local_rx: List[IPDatagram] = []

    @property
    def interface(self) -> Interface:
        if not self.interfaces:
            raise RuntimeError(f"host {self.name} has no interface")
        return self.interfaces[0]

    def _originate_multicast(self, datagram: IPDatagram) -> None:
        self.interface.send(datagram)

    def _transmit_unicast(self, datagram: IPDatagram) -> None:
        if self.interface.on_same_network(datagram.dst):
            self.interface.send(datagram, link_dst=datagram.dst)
        elif self.default_gateway is not None:
            self.interface.send(datagram, link_dst=self.default_gateway)

    def receive(self, interface: Interface, datagram: IPDatagram) -> None:
        if datagram.is_multicast:
            if datagram.dst in self.joined_groups and datagram.proto not in (
                PROTO_IGMP,
                PROTO_CBT,  # hosts do not recognise the CBT payload type (§5)
            ):
                self.delivered.append(datagram)
            if (
                datagram.dst in self.joined_groups
                or datagram.dst >> 8 == LINK_LOCAL_HIGH_BITS
            ):
                # Dispatched, not retained: joined-group data is already
                # in ``delivered`` and a host hears a HELLO or an IGMP
                # query on its LAN for as long as the network runs.
                super().receive(interface, datagram)
            return
        if self.owns_address(datagram.dst):
            self.local_rx.append(datagram)
            super().receive(interface, datagram)
        # Hosts never forward.


class MulticastForwarder(Protocol):
    """Data-plane hook a multicast routing protocol attaches to a router."""

    def forward_multicast(
        self, router: "Router", interface: Interface, datagram: IPDatagram
    ) -> None: ...


class Router(RoutedNode):
    """Unicast forwarder; multicast handling is delegated to protocols.

    A multicast routing protocol (CBT, DVMRP, ...) attaches itself by
    registering protocol handlers and, for data-plane forwarding,
    assigning :attr:`multicast_forwarder`.
    """

    def __init__(self, name: str, scheduler: Scheduler) -> None:
        super().__init__(name, scheduler)
        self.table = RoutingTable()
        # Set by the multicast protocol, if any.
        self.multicast_forwarder: Optional[MulticastForwarder] = None
        #: Optional hook called on transit unicast datagrams; returning
        #: True consumes the packet (CBT uses this to intercept
        #: non-member-sender encapsulations at the first on-tree router).
        self.unicast_interceptor: Optional[
            Callable[["Router", Interface, IPDatagram], bool]
        ] = None
        self.forwarded_count = 0

    def close(self) -> None:
        super().close()
        self.multicast_forwarder = self.unicast_interceptor = None

    def receive(self, interface: Interface, datagram: IPDatagram) -> None:
        self.rx_count += 1
        if datagram.is_multicast:
            # Link-local control multicasts are consumed, not forwarded.
            handler = self._handlers.get(datagram.proto, self._default_handler)
            if handler is not None:
                handler(self, interface, datagram)
            if (
                datagram.dst >> 8 != LINK_LOCAL_HIGH_BITS
                and self.multicast_forwarder is not None
            ):
                self.multicast_forwarder.forward_multicast(self, interface, datagram)
            return
        if self.owns_address(datagram.dst):
            handler = self._handlers.get(datagram.proto, self._default_handler)
            if handler is not None:
                handler(self, interface, datagram)
            return
        self._forward(interface, datagram)

    def _forward(self, arrival: Interface, datagram: IPDatagram) -> None:
        if self.unicast_interceptor is not None and self.unicast_interceptor(
            self, arrival, datagram
        ):
            return
        if datagram.ttl <= 1:
            # TTL expired — counted as a reasoned drop.
            telemetry = self.scheduler.telemetry
            telemetry.msg_dropped(_payload_label(datagram), "ttl")
            telemetry.registry.counter(f"netsim.node.{self.name}.drop.ttl").inc()
            return
        self.forwarded_count += 1
        self._transmit_unicast(datagram.decremented())

    def _transmit_unicast(self, datagram: IPDatagram) -> None:
        # Directly connected destination?
        direct = self.interface_toward(datagram.dst)
        if direct is not None:
            direct.send(datagram, link_dst=datagram.dst)
            return
        route = self.table.lookup(datagram.dst)
        if route is None:
            # No route: dropped, like a real router — but counted.
            telemetry = self.scheduler.telemetry
            telemetry.msg_dropped(_payload_label(datagram), "no_route")
            telemetry.registry.counter(
                f"netsim.node.{self.name}.drop.no_route"
            ).inc()
            return
        link_dst = route.next_hop if route.next_hop is not None else datagram.dst
        route.interface.send(datagram, link_dst=link_dst)

    # -- CBT-facing helpers ----------------------------------------------

    def best_route(self, destination: IPv4Address) -> Optional[Route]:
        """Route toward ``destination``, treating direct subnets as routes."""
        direct = self.interface_toward(destination)
        if direct is not None:
            return Route(
                prefix=direct.network, interface=direct, next_hop=None, metric=0.0
            )
        return self.table.lookup(destination)

    def next_hop_toward(self, destination: IPv4Address) -> Optional[IPv4Address]:
        """Address of the next hop toward ``destination`` (spec: "best
        next-hop on the path to the core"); None when unreachable or
        when the destination is directly connected."""
        route = self.best_route(destination)
        if route is None:
            return None
        return route.next_hop
