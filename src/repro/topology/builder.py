"""The :class:`Network` builder.

A ``Network`` owns the scheduler, packet trace, address allocator,
nodes, links, and the link-state routing instance — everything a
scenario needs.  Topology figures, random generators, examples, and
tests all construct networks through this one class, so simulations
stay deterministic and uniformly wired.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.netsim.address import AddressAllocator, IPv4Address
from repro.netsim.engine import Scheduler
from repro.netsim.link import (
    DEFAULT_LAN_DELAY,
    DEFAULT_P2P_DELAY,
    Link,
    PointToPointLink,
    Subnet,
)
from repro.netsim.trace import PacketTrace
from repro.routing.linkstate import LinkStateRouting
from repro.routing.table import Host, Router


class Network:
    """A complete simulated internetwork.

    Typical usage::

        net = Network()
        r1, r2 = net.add_router("R1"), net.add_router("R2")
        s1 = net.add_subnet("S1", [r1])
        net.add_p2p("L12", r1, r2, cost=1)
        a = net.add_host("A", s1)
        net.converge()          # compute unicast routing
        ...schedule protocol actions...
        net.run()
        ...read results...
        net.close()             # or just drop it: ``__del__`` closes

    A network has an end.  :meth:`close` breaks every reference cycle
    the network owns (scheduler queue, protocol components, nodes,
    interfaces, links, routing), so the whole simulation is freed by
    refcount when the object is dropped rather than left for the cyclic
    collector — which a process running hundreds of short simulations
    would otherwise pay again and again.
    """

    def __init__(self, trace_enabled: bool = True) -> None:
        self.scheduler = Scheduler()
        self.telemetry = self.scheduler.telemetry
        self.trace = PacketTrace(enabled=trace_enabled)
        self.allocator = AddressAllocator()
        self.routers: Dict[str, Router] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: Dict[str, Link] = {}
        self.routing = LinkStateRouting(routers=[], links=[])

    # -- construction -----------------------------------------------------

    def add_router(self, name: str) -> Router:
        if name in self.routers or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        router = Router(name, self.scheduler)
        self.routers[name] = router
        self.routing.add_router(router)
        return router

    def add_subnet(
        self,
        name: str,
        routers: Sequence[Router] = (),
        delay: float = DEFAULT_LAN_DELAY,
        cost: float = 1.0,
        bandwidth_bps: Optional[float] = None,
    ) -> Subnet:
        """Create a multi-access LAN and attach ``routers`` to it."""
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        prefix = self.allocator.next_subnet()
        subnet = Subnet(
            name=name,
            network=prefix,
            scheduler=self.scheduler,
            trace=self.trace,
            delay=delay,
            cost=cost,
            bandwidth_bps=bandwidth_bps,
        )
        self.links[name] = subnet
        self.routing.add_link(subnet)
        for router in routers:
            self.attach(router, subnet)
        return subnet

    def add_p2p(
        self,
        name: str,
        a: Router,
        b: Router,
        delay: float = DEFAULT_P2P_DELAY,
        cost: float = 1.0,
        mode: str = "native",
        bandwidth_bps: Optional[float] = None,
    ) -> PointToPointLink:
        """Create a point-to-point link (or CBT tunnel with mode='cbt')."""
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        prefix = self.allocator.next_subnet()
        link = PointToPointLink(
            name=name,
            network=prefix,
            scheduler=self.scheduler,
            trace=self.trace,
            delay=delay,
            cost=cost,
            bandwidth_bps=bandwidth_bps,
        )
        self.links[name] = link
        self.routing.add_link(link)
        self.attach(a, link, mode=mode)
        self.attach(b, link, mode=mode)
        return link

    def attach(self, node, link: Link, mode: str = "native"):
        """Attach any node to a link, allocating the next host address."""
        address = self.allocator.next_host(link.network)
        return node.add_interface(address, link.network, link, mode=mode)

    def add_host(self, name: str, subnet: Subnet) -> Host:
        """Create a host on ``subnet`` with a default gateway if possible."""
        if name in self.routers or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        host = Host(name, self.scheduler)
        self.hosts[name] = host
        self.attach(host, subnet)
        gateway = self._lowest_router_address_on(subnet)
        if gateway is not None:
            host.default_gateway = gateway
        return host

    def _lowest_router_address_on(self, link: Link) -> Optional[IPv4Address]:
        addresses = [
            interface.address
            for interface in link.interfaces
            if interface.node.name in self.routers
        ]
        return min(addresses) if addresses else None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """End the simulation and break every reference cycle the
        network owns, so it is freed by refcount when dropped.

        The scheduler empties its queue and every component registered
        with it (protocol engines, agents, tickers, auditors, probes)
        lets go of what it holds; the nodes unhook their protocols; the
        routing substrate ends the topology (interfaces, links and
        tables let go of each other).  Afterwards scheduling, running
        and sending raise :class:`~repro.netsim.engine.SchedulerError`;
        ``scheduler.events_processed`` and ``telemetry.registry`` read
        what they read before.  Idempotent.

        A network that is simply dropped ends the same way, in two
        steps that happen at the same instant when nothing else is
        held: ``__del__`` ends the simulation, and the routing
        substrate this object then releases ends the topology from its
        own ``__del__``.  Both objects sit outside the cycles they own,
        so neither waits for the collector — and a caller that kept
        ``network.routing`` keeps a whole topology with it.
        """
        self._end_simulation()
        self.routing.close()

    def _end_simulation(self) -> None:
        if self.scheduler.closed:
            return
        self.scheduler.close()
        for node in self.routers.values():
            node.close()
        for node in self.hosts.values():
            node.close()

    def __del__(self) -> None:
        if "routing" in self.__dict__:  # else the constructor raised
            self._end_simulation()

    def converge(self) -> None:
        """(Re)compute unicast routing over the current topology."""
        self.routing.recompute()

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop (to idle by default)."""
        return self.scheduler.run(until=until)

    def fail_link(self, name: str, reconverge: bool = True) -> None:
        """Take a link down, optionally reconverging unicast routing."""
        self.links[name].set_up(False)
        if reconverge:
            self.converge()

    def restore_link(self, name: str, reconverge: bool = True) -> None:
        self.links[name].set_up(True)
        if reconverge:
            self.converge()

    def fail_router(self, name: str, reconverge: bool = True) -> None:
        """Fail a router by downing all of its interfaces."""
        for interface in self.routers[name].interfaces:
            interface.up = False
        if reconverge:
            self.converge()

    def restore_router(self, name: str, reconverge: bool = True) -> None:
        for interface in self.routers[name].interfaces:
            interface.up = True
        if reconverge:
            self.converge()

    # -- queries -------------------------------------------------------------

    def router(self, name: str) -> Router:
        return self.routers[name]

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def link(self, name: str) -> Link:
        return self.links[name]

    def all_routers(self) -> List[Router]:
        return list(self.routers.values())

    def all_subnets(self) -> List[Subnet]:
        return [link for link in self.links.values() if isinstance(link, Subnet)]

    def address_of(self, node_name: str) -> IPv4Address:
        node = self.routers.get(node_name) or self.hosts.get(node_name)
        if node is None:
            raise KeyError(node_name)
        return node.primary_address
