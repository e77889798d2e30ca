"""Network interfaces (the spec's "vifs").

An :class:`Interface` binds a node to a link with an address and mask.
CBT FIB entries reference interfaces by their ``vif`` index, matching
the spec's FIB layout (Figure 4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.address import IPv4Address, IPv4Network
from repro.netsim.engine import SchedulerError
from repro.telemetry import payload_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.link import Link
    from repro.netsim.node import Node
    from repro.netsim.packet import IPDatagram


class Interface:
    """One attachment point of a node to a link.

    ``vif`` is the node-local interface index; ``network`` is the
    subnet prefix of the attached link; ``mode`` distinguishes native
    from CBT-mode (tunnel) interfaces per spec §5.2.

    Slotted: a world has about ten times as many interfaces as routers.
    """

    __slots__ = ("node", "vif", "address", "network", "mode", "link", "_up")

    def __init__(
        self,
        node: "Node",
        vif: int,
        address: IPv4Address,
        network: IPv4Network,
        mode: str = "native",
    ) -> None:
        if address not in network:
            raise ValueError(f"{address} is not inside {network}")
        if mode not in ("native", "cbt"):
            raise ValueError(f"mode must be 'native' or 'cbt', got {mode!r}")
        self.node = node
        self.vif = vif
        self.address = address
        self.network = network
        self.mode = mode
        self.link: Optional["Link"] = None
        self._up = True

    def __repr__(self) -> str:
        owner = self.node.name if self.node is not None else "(closed)"
        return (
            f"Interface({owner}#{self.vif} {self.address}/"
            f"{self.network.prefixlen} {self.mode})"
        )

    @property
    def up(self) -> bool:
        """Administrative state; flipping it notifies the attached link
        so topology-derived caches (link-state adjacency) invalidate."""
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        if value == self._up:
            return
        self._up = value
        if self.link is not None:
            self.link.notify_topology_changed()

    def attach(self, link: "Link") -> None:
        """Called by the link when the interface is connected to it."""
        self.link = link

    def on_same_network(self, address: IPv4Address) -> bool:
        """True if ``address`` falls inside this interface's subnet.

        This is the spec's "AND the address with the subnet mask and
        compare" operation used both for local-origin checks (§5) and
        proxy-ack detection (§2.6).
        """
        return address in self.network

    def send(self, datagram: "IPDatagram", link_dst: Optional[IPv4Address] = None) -> None:
        """Transmit onto the attached link.

        ``link_dst`` names the link-level next hop for unicast
        forwarding (the datagram's final destination may be further
        away); multicast transmissions leave it ``None`` and reach all
        other interfaces on the link.
        """
        if self.link is None:
            if self.node is None:
                raise SchedulerError(
                    f"cannot send from {self.address}: the network is closed"
                )
            raise RuntimeError(f"{self!r} is not attached to a link")
        if not self._up:
            telemetry = self.node.scheduler.telemetry
            telemetry.msg_dropped(payload_label(datagram), "iface_down")
            telemetry.registry.counter(
                f"netsim.node.{self.node.name}.drop.iface_down"
            ).inc()
            return
        self.link.transmit(self, datagram, link_dst)
