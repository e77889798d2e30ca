"""IPv4 addressing helpers.

The simulator uses the standard library :mod:`ipaddress` types
throughout.  This module adds the well-known multicast groups the CBT
spec relies on and a deterministic allocator that hands out subnet
prefixes and host addresses for topology builders.
"""

from __future__ import annotations

import ipaddress
from typing import Iterator

IPv4Address = ipaddress.IPv4Address
IPv4Network = ipaddress.IPv4Network

#: All systems on this subnet (RFC 1112) — IGMP queries go here.
ALL_SYSTEMS = IPv4Address("224.0.0.1")

#: All multicast routers on this subnet — IGMP leaves go here.
ALL_ROUTERS = IPv4Address("224.0.0.2")

#: All CBT routers on this subnet (spec §2: 224.0.0.7).
ALL_CBT_ROUTERS = IPv4Address("224.0.0.7")

#: First administratively assignable multicast group used by workloads.
GROUP_RANGE = IPv4Network("239.0.0.0/8")


def is_multicast(address: IPv4Address) -> bool:
    """True for class-D (224.0.0.0/4) destinations."""
    return address.is_multicast


#: int(224.0.0.0) >> 8 — used for a constant-time link-local check.
LINK_LOCAL_HIGH_BITS = int(IPv4Address("224.0.0.0")) >> 8


def is_link_local_multicast(address: IPv4Address) -> bool:
    """True for 224.0.0.0/24 groups, which routers never forward."""
    return (int(address) >> 8) == LINK_LOCAL_HIGH_BITS


def group_address(index: int) -> IPv4Address:
    """Deterministic multicast group address for workload group ``index``."""
    if index < 0:
        raise ValueError(f"group index must be non-negative, got {index}")
    base = int(GROUP_RANGE.network_address)
    address = IPv4Address(base + 1 + index)
    if address not in GROUP_RANGE:
        raise ValueError(f"group index {index} exceeds the {GROUP_RANGE} range")
    return address


class AddressAllocator:
    """Deterministic allocator of subnet prefixes and host addresses.

    Topology builders ask for one subnet per LAN / point-to-point link
    and one host address per attached interface::

        alloc = AddressAllocator()
        net = alloc.next_subnet()          # 10.0.0.0/24
        a = alloc.next_host(net)           # 10.0.0.1
        b = alloc.next_host(net)           # 10.0.0.2
    """

    def __init__(self, base: str = "10.0.0.0/8", prefix_len: int = 24) -> None:
        self._base = IPv4Network(base)
        if prefix_len <= self._base.prefixlen or prefix_len > 30:
            raise ValueError(
                f"prefix_len must be in ({self._base.prefixlen}, 30], got {prefix_len}"
            )
        self._prefix_len = prefix_len
        self._subnets: Iterator[IPv4Network] = self._base.subnets(
            new_prefix=prefix_len
        )
        self._next_host_index: dict = {}

    def next_subnet(self) -> IPv4Network:
        """Allocate the next unused subnet prefix."""
        try:
            subnet = next(self._subnets)
        except StopIteration:
            raise ValueError(f"address space {self._base} exhausted") from None
        self._next_host_index[subnet] = 1
        return subnet

    def next_host(self, subnet: IPv4Network) -> IPv4Address:
        """Allocate the next unused host address within ``subnet``."""
        if subnet not in self._next_host_index:
            raise ValueError(f"{subnet} was not allocated by this allocator")
        index = self._next_host_index[subnet]
        address = IPv4Address(int(subnet.network_address) + index)
        if address >= subnet.broadcast_address:
            raise ValueError(f"subnet {subnet} host space exhausted")
        self._next_host_index[subnet] = index + 1
        return address
