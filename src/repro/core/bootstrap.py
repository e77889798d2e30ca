"""Group initiation and the <core, group> advertisement mechanism.

The spec deliberately externalises core management (§1, §2.1): "a
group's initiator elects a small number of candidate cores (which may
be advertised by some means)".  :class:`GroupCoordinator` is that
means in the simulator — it plays the role of the "core distribution
engine" / network-management facility: it records which routers are
the cores of each group and answers lookups from hosts (so they can
issue IGMP RP/Core-Reports) and from DRs that need a mapping for
non-member senders.

:class:`CBTDomain` is the assembly convenience used by examples,
tests, and benchmarks: it instantiates IGMP + CBT on every router of a
:class:`repro.topology.builder.Network` and wires host agents.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.audit import check_invariants
from repro.core.messages import MessageType
from repro.core.router import CBTProtocol
from repro.core.timers import CBTTimers, DEFAULT_TIMERS
from repro.igmp.host import IGMPHostAgent
from repro.igmp.router_side import IGMPConfig
from repro.netsim.address import IPv4Address
from repro.netsim.engine import collector_paused
from repro.routing.table import Router
from repro.topology.builder import Network

CoreSpec = Union[Router, IPv4Address, str]


class GroupCoordinator:
    """Stands in for the external core advertisement protocol."""

    def __init__(self) -> None:
        self._groups: Dict[IPv4Address, Tuple[IPv4Address, ...]] = {}
        self._protocols: List[CBTProtocol] = []

    def register(self, protocol: CBTProtocol) -> None:
        self._protocols.append(protocol)

    def create_group(
        self, group: IPv4Address, cores: Sequence[IPv4Address]
    ) -> Tuple[IPv4Address, ...]:
        """Record the ordered core list (primary first) for ``group``."""
        if not cores:
            raise ValueError("a group needs at least one core")
        ordered = tuple(cores)
        self._groups[group] = ordered
        return ordered

    def update_group(
        self, group: IPv4Address, cores: Sequence[IPv4Address]
    ) -> Tuple[IPv4Address, ...]:
        """Re-announce a group's core list (migration handover).

        Replaces the recorded list, the one every registered protocol
        reads, then tells each protocol in registration order through
        :meth:`CBTProtocol.reannounced`, so a router that owns the new
        primary stands as root.
        """
        if group not in self._groups:
            raise KeyError(f"group {group} was never created")
        if not cores:
            raise ValueError("a group needs at least one core")
        ordered = tuple(cores)
        if ordered == self._groups[group]:
            return ordered
        self._groups[group] = ordered
        for protocol in self._protocols:
            protocol.reannounced(group)
        return ordered

    def cores_for(self, group: IPv4Address) -> Tuple[IPv4Address, ...]:
        return self._groups.get(group, ())


class CBTDomain:
    """A Network in which every router speaks CBT.

    Usage::

        net = build_figure1()
        domain = CBTDomain(net, mode="cbt")
        group = group_address(0)
        domain.create_group(group, cores=["R4", "R9"])
        domain.start()                      # start IGMP + CBT everywhere
        net.run(until=5.0)                  # let elections settle
        domain.join_host("A", group)        # triggers the CBT join
        net.run(until=10.0)
    """

    def __init__(
        self,
        network: Network,
        timers: CBTTimers = DEFAULT_TIMERS,
        mode: str = "cbt",
        igmp_config: Optional[IGMPConfig] = None,
        use_cbt_multicast: bool = False,
        aggregate_echoes: bool = False,
        wire_format: bool = False,
        cbt_routers: Optional[Sequence[str]] = None,
        hosts: Optional[Sequence[str]] = None,
    ) -> None:
        self.network = network
        self.telemetry = network.scheduler.telemetry
        self.coordinator = GroupCoordinator()
        self.protocols: Dict[str, CBTProtocol] = {}
        self.host_agents: Dict[str, IGMPHostAgent] = {}
        names = (
            list(cbt_routers) if cbt_routers is not None else list(network.routers)
        )
        host_names = list(hosts) if hosts is not None else list(network.hosts)
        # Paused like ``realise``: every engine and agent built here is
        # reachable from the domain, so a collection finds nothing.
        with collector_paused():
            for name in names:
                router = network.router(name)
                self.protocols[name] = CBTProtocol(
                    router,
                    self.coordinator,
                    timers=timers,
                    mode=mode,
                    igmp_config=igmp_config,
                    use_cbt_multicast=use_cbt_multicast,
                    aggregate_echoes=aggregate_echoes,
                    wire_format=wire_format,
                )
            for name in host_names:
                self.host_agents[name] = IGMPHostAgent(network.hosts[name])
        self._router_of: Dict[IPv4Address, str] = {}
        self._indexed_interfaces = 0

    def start(self) -> None:
        """Start every protocol instance (IGMP elections, HELLOs, timers):
        a burst of pending events and in-flight datagrams, all reachable
        from the scheduler, so it runs with the collector paused."""
        with collector_paused():
            for protocol in self.protocols.values():
                protocol.start()

    def protocol(self, router_name: str) -> CBTProtocol:
        return self.protocols[router_name]

    def agent(self, host_name: str) -> IGMPHostAgent:
        return self.host_agents[host_name]

    # -- group management -------------------------------------------------

    def create_group(
        self, group: IPv4Address, cores: Sequence[CoreSpec]
    ) -> Tuple[IPv4Address, ...]:
        """Create a group with the given cores (routers, names, or addresses)."""
        addresses = tuple(self._core_address(core) for core in cores)
        return self.coordinator.create_group(group, addresses)

    def update_group(
        self, group: IPv4Address, cores: Sequence[CoreSpec]
    ) -> Tuple[IPv4Address, ...]:
        """Re-announce a group's core list (see GroupCoordinator)."""
        addresses = tuple(self._core_address(core) for core in cores)
        return self.coordinator.update_group(group, addresses)

    def _core_address(self, core: CoreSpec) -> IPv4Address:
        if isinstance(core, Router):
            return core.primary_address
        if isinstance(core, str):
            return self.network.router(core).primary_address
        return core

    def join_host(self, host_name: str, group: IPv4Address) -> None:
        """Host joins: IGMP core report + membership report (spec §2.5)."""
        cores = self.coordinator.cores_for(group)
        self.host_agents[host_name].join(group, cores=cores or None)

    def leave_host(self, host_name: str, group: IPv4Address) -> None:
        self.host_agents[host_name].leave(group)

    # -- inspection ----------------------------------------------------------

    def on_tree_routers(self, group: IPv4Address) -> List[str]:
        return sorted(
            [
                name
                for name, protocol in self.protocols.items()
                if group in protocol.fib.by_group
            ]
        )

    def router_of(self, address: IPv4Address) -> Optional[str]:
        """Name of the domain router owning interface ``address``.

        The one address index every observer reads.  Interfaces are
        only ever added and keep their address, so an indexed answer
        stays right; a miss re-counts the interfaces and re-indexes if
        one was added since.
        """
        owner = self._router_of.get(address)
        if owner is None:
            count = sum(len(p.router.interfaces) for p in self.protocols.values())
            if count != self._indexed_interfaces:
                self._indexed_interfaces = count
                for name, protocol in self.protocols.items():
                    for interface in protocol.router.interfaces:
                        self._router_of[interface.address] = name
                owner = self._router_of.get(address)
        return owner

    def tree_edges(self, group: IPv4Address) -> List[Tuple[str, str]]:
        """(child, parent) router-name pairs for the group's tree."""
        edges = []
        for name, protocol in self.protocols.items():
            parent = protocol.tree_parent(group) if protocol.fib.by_group else None
            if parent is not None:
                edges.append((name, self.router_of(parent) or str(parent)))
        return sorted(edges)

    def total_fib_state(self) -> int:
        """Sum of FIB state across all routers (E1 metric)."""
        return sum(p.fib.total_state() for p in self.protocols.values())

    def control_messages_sent(self) -> int:
        """CBT control messages sent domain-wide, HELLOs excluded (ECHO
        keepalives included).

        Sums the counters each protocol's ``ControlStats`` holds —
        they *are* the registry's ``cbt.router.<name>.tx.*``
        instruments, so every consumer (campaign control-cost, E2
        overhead, ``repro stats``) reads the same numbers without a
        pattern query per router.
        """
        return sum(
            [
                counter.value
                for protocol in self.protocols.values()
                for msg_type, counter in protocol.stats.tx.items()
                if msg_type is not MessageType.HELLO
            ]
        )

    def events_total(self) -> int:
        """Protocol milestones recorded domain-wide; the quiescence
        counter.  Sums the ``cbt.router.<name>.event.<kind>`` counters
        each protocol's ``_record`` holds, as
        :meth:`control_messages_sent` sums the tx counters — the bus
        also carries membership and fault records, so its length is not
        this count."""
        return sum(
            counter.value
            for protocol in self.protocols.values()
            for counter in protocol.event_counters.values()
        )

    def assert_tree_consistent(self, group: IPv4Address) -> None:
        """Raise AssertionError if :func:`check_invariants` reports
        anything for ``group``; the message is those findings."""
        findings = [f for f in check_invariants(self) if f.group == group]
        if findings:
            raise AssertionError("\n".join(map(str, findings)))
