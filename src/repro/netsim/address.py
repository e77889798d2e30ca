"""IPv4 addressing: the address and prefix types, well-known groups,
and a deterministic allocator.

An :class:`IPv4Address` *is* its 32-bit value — an ``int`` subclass —
so hashing, ``==``, ordering and ``int()`` are the C-level int
operations.  CBT state is keyed by address from end to end (the FIB by
group, the neighbour and DR tables by router, link delivery by next
hop), and the standard library's address type spent three Python
frames on every hash (docs/PERFORMANCE.md, "Decision record: an address
is an int").  Text, ``repr``, ``format(a, "")``, ``packed`` and
``is_multicast`` read as the standard library's do, and every input
:mod:`ipaddress` rejects raises its ``AddressValueError`` here too
(``tests/test_address.py`` compares the two).  Three consequences:

* an address equals, and hashes like, the plain int of its value, so a
  dict or set must not mix address keys with other int keys (a vif
  index 0 would equal ``0.0.0.0``);
* ``json.dumps`` writes an address as a number — serialise with
  ``str()``;
* arithmetic returns a plain int: wrap it, ``IPv4Address(base + 1)``.

An :class:`IPv4Network` is a base and a mask, so membership is one
mask-and-compare.  Text parsing of both types is delegated to
:mod:`ipaddress`; this is the one module that imports it.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, Iterator

#: Netmask (as an int) for every prefix length; index by prefixlen.
NETMASKS = tuple((0xFFFFFFFF << (32 - p)) & 0xFFFFFFFF for p in range(33))


class IPv4Address(int):
    """An IPv4 address: built from a dotted string, an int in
    ``[0, 2**32)``, 4 packed bytes, or another address of either kind."""

    __slots__ = ()

    version = 4

    def __new__(cls, address: object) -> "IPv4Address":
        if isinstance(address, int) and 0 <= address <= 0xFFFFFFFF:
            return int.__new__(cls, address)
        return int.__new__(cls, int(ipaddress.IPv4Address(address)))

    def __str__(self) -> str:
        return f"{self >> 24}.{self >> 16 & 255}.{self >> 8 & 255}.{self & 255}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __bool__(self) -> bool:
        return True  # 0.0.0.0 included, as for the standard library type

    @property
    def packed(self) -> bytes:
        return self.to_bytes(4, "big")

    @property
    def is_multicast(self) -> bool:
        """True for class D (224.0.0.0/4)."""
        return self >> 28 == 0xE


class IPv4Network:
    """An IPv4 prefix, held as its base address and netmask.

    Built like :class:`ipaddress.IPv4Network` (``"10.0.0.0/24"``,
    ``(base, prefixlen)``, host bits refused unless ``strict=False``).
    """

    __slots__ = ("network_address", "netmask", "prefixlen")

    def __init__(self, address: object, strict: bool = True) -> None:
        parsed = ipaddress.IPv4Network(address, strict)
        self._set(int(parsed.network_address), parsed.prefixlen)

    def _set(self, base: int, prefixlen: int) -> None:
        self.network_address = IPv4Address(base)
        self.netmask = IPv4Address(NETMASKS[prefixlen])
        self.prefixlen = prefixlen

    def __contains__(self, address: int) -> bool:
        return address & self.netmask == self.network_address

    @property
    def broadcast_address(self) -> IPv4Address:
        return IPv4Address(self.network_address | (self.netmask ^ 0xFFFFFFFF))

    def overlaps(self, other: "IPv4Network") -> bool:
        return (self.network_address ^ other.network_address) & (
            self.netmask & other.netmask
        ) == 0

    def subnets(self, new_prefix: int) -> Iterator["IPv4Network"]:
        """Every ``/new_prefix`` inside this prefix, in address order."""
        if not self.prefixlen <= new_prefix <= 32:
            raise ValueError(f"new prefix /{new_prefix} is invalid for {self}")
        step = 1 << (32 - new_prefix)
        netmask = IPv4Address(NETMASKS[new_prefix])
        for base in range(self.network_address, self.broadcast_address + 1, step):
            subnet = object.__new__(IPv4Network)
            subnet.network_address = IPv4Address(base)
            subnet.netmask = netmask
            subnet.prefixlen = new_prefix
            yield subnet

    def __eq__(self, other: object) -> bool:
        if type(other) is not IPv4Network:
            return NotImplemented
        return (
            self.network_address == other.network_address
            and self.prefixlen == other.prefixlen
        )

    def __hash__(self) -> int:
        return hash(self.network_address ^ self.netmask)

    def __str__(self) -> str:
        return f"{self.network_address}/{self.prefixlen}"

    def __repr__(self) -> str:
        return f"IPv4Network('{self}')"


#: All systems on this subnet (RFC 1112) — IGMP queries go here.
ALL_SYSTEMS = IPv4Address("224.0.0.1")

#: All multicast routers on this subnet — IGMP leaves go here.
ALL_ROUTERS = IPv4Address("224.0.0.2")

#: All CBT routers on this subnet (spec §2: 224.0.0.7).
ALL_CBT_ROUTERS = IPv4Address("224.0.0.7")

#: First administratively assignable multicast group used by workloads.
GROUP_RANGE = IPv4Network("239.0.0.0/8")


#: 224.0.0.0 >> 8 — used for a constant-time link-local check.
LINK_LOCAL_HIGH_BITS = IPv4Address("224.0.0.0") >> 8


def is_link_local_multicast(address: IPv4Address) -> bool:
    """True for 224.0.0.0/24 groups, which routers never forward."""
    return address >> 8 == LINK_LOCAL_HIGH_BITS


def group_address(index: int) -> IPv4Address:
    """Deterministic multicast group address for workload group ``index``."""
    if index < 0:
        raise ValueError(f"group index must be non-negative, got {index}")
    address = IPv4Address(GROUP_RANGE.network_address + 1 + index)
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
        #: Allocated subnet's base address -> index of its next host.
        #: Every allocated subnet has ``prefix_len``, so the base names
        #: it, and an int key hashes in C.
        self._next_host_index: Dict[int, int] = {}

    def next_subnet(self) -> IPv4Network:
        """Allocate the next unused subnet prefix."""
        try:
            subnet = next(self._subnets)
        except StopIteration:
            raise ValueError(f"address space {self._base} exhausted") from None
        self._next_host_index[subnet.network_address] = 1
        return subnet

    def next_host(self, subnet: IPv4Network) -> IPv4Address:
        """Allocate the next unused host address within ``subnet``."""
        base = subnet.network_address
        index = self._next_host_index.get(base)
        if index is None or subnet.prefixlen != self._prefix_len:
            raise ValueError(f"{subnet} was not allocated by this allocator")
        # The broadcast address is ``base`` plus the host mask.
        if index >= subnet.netmask ^ 0xFFFFFFFF:
            raise ValueError(f"subnet {subnet} host space exhausted")
        self._next_host_index[base] = index + 1
        return IPv4Address(base + index)
