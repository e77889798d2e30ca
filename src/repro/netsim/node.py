"""Nodes: the base class shared by hosts and routers.

A node owns interfaces and dispatches received datagrams to protocol
handlers registered per IP protocol number.  A handler is a plain
callable ``handler(node, interface, datagram)``; registering an object
with a ``handle`` method stores that bound method, so the receive path
makes one call whatever was registered.  Routing/forwarding policy
lives in subclasses (:class:`repro.routing.table.RoutedNode`,
:class:`repro.core.router.CBTRouter`, ...), keeping this base minimal.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.netsim.address import IPv4Address, IPv4Network
from repro.netsim.engine import Scheduler
from repro.netsim.link import Link
from repro.netsim.nic import Interface
from repro.netsim.packet import IPDatagram


class Node:
    """A host or router identified by ``name`` with one or more interfaces."""

    def __init__(self, name: str, scheduler: Scheduler) -> None:
        self.name = name
        self.scheduler = scheduler
        self.interfaces: List[Interface] = []
        self._handlers: Dict[int, Callable[..., None]] = {}
        self._default_handler: Optional[Callable[..., None]] = None
        self.rx_count = 0
        # Memo caches over the interface list (hot on every unicast
        # transmit/receive); interface addresses and networks are fixed
        # at creation, so adding an interface is the only invalidation.
        self._toward_cache: Dict[IPv4Address, Optional[Interface]] = {}
        self._own_addresses: Optional[frozenset] = None
        self._primary_address: Optional[IPv4Address] = None
        #: The interfaces on multi-access links (``Link.multi_access``),
        #: in vif order.
        self.lan_interfaces: List[Interface] = []

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"

    # -- interface management -------------------------------------------

    def add_interface(
        self, address: IPv4Address, network: IPv4Network, link: Link, mode: str = "native"
    ) -> Interface:
        """Create an interface on ``link`` with the given address."""
        interface = Interface(
            node=self,
            vif=len(self.interfaces),
            address=address,
            network=network,
            mode=mode,
        )
        self.interfaces.append(interface)
        if link.multi_access:
            self.lan_interfaces.append(interface)
        self._toward_cache = {}
        self._own_addresses = None
        self._primary_address = None
        link.attach(interface)
        return interface

    def close(self) -> None:
        """``Network.close()``: unhook the protocols, each of which
        refers back to this node."""
        self._handlers = {}
        self._default_handler = None

    def interface_for_vif(self, vif: int) -> Interface:
        return self.interfaces[vif]

    def interface_on(self, network: IPv4Network) -> Optional[Interface]:
        """The interface attached to ``network``, if any."""
        for interface in self.interfaces:
            if interface.network == network:
                return interface
        return None

    def interface_toward(self, address: IPv4Address) -> Optional[Interface]:
        """The directly connected interface whose subnet contains ``address``."""
        cached = self._toward_cache.get(address, False)
        if cached is not False:
            return cached  # type: ignore[return-value]
        found: Optional[Interface] = None
        for interface in self.interfaces:
            if interface.on_same_network(address):
                found = interface
                break
        self._toward_cache[address] = found
        return found

    def owns_address(self, address: IPv4Address) -> bool:
        owned = self._own_addresses
        if owned is None:
            owned = self._own_addresses = frozenset(i.address for i in self.interfaces)
        return address in owned

    @property
    def primary_address(self) -> IPv4Address:
        """Lowest interface address; the node's protocol identity.

        The spec breaks DR/querier ties on "lowest address", so the
        identity must be stable and comparable.
        """
        primary = self._primary_address
        if primary is None:
            if not self.interfaces:
                raise RuntimeError(f"{self.name} has no interfaces")
            primary = self._primary_address = min(i.address for i in self.interfaces)
        return primary

    # -- protocol dispatch ------------------------------------------------

    def register_handler(self, proto: int, handler) -> None:
        """Register a handler (a callable, or an object whose ``handle``
        method is one) for IP protocol ``proto``."""
        self._handlers[proto] = getattr(handler, "handle", handler)

    def register_default_handler(self, handler) -> None:
        """Handler for protocols without a specific registration."""
        self._default_handler = getattr(handler, "handle", handler)

    def receive(self, interface: Interface, datagram: IPDatagram) -> None:
        """Entry point invoked by links on delivery."""
        self.rx_count += 1
        handler = self._handlers.get(datagram.proto, self._default_handler)
        if handler is not None:
            handler(self, interface, datagram)
