"""The user-space / kernel FIB split (spec §3).

"CBT routers implement user-level code for tree building, maintenance,
and teardown.  This results in a group-specific forwarding information
base (FIB) being built in user-space.  This FIB is downloaded into
kernel-space for fast and efficient data packet forwarding.  Any
changes in FIB entries are communicated to the kernel as they occur,
so that the kernel FIB always reflects the current state."

:class:`KernelEntry` is the kernel side: an immutable per-group entry
compiled from the user-space :class:`repro.core.fib.FIBEntry` by each
of its mutators, as they occur.  The data plane
(:mod:`repro.core.forwarding`) forwards from it and from nothing else;
:class:`repro.core.fib.FIB` counts the downloads and deletions, the
spec's update-traffic quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.netsim.address import IPv4Address


@dataclass(frozen=True)
class KernelEntry:
    """Immutable kernel-side forwarding state of one group."""

    group: IPv4Address
    parent_address: Optional[IPv4Address]
    parent_vif: Optional[int]
    #: (address, vif) pairs by ascending address.
    children: Tuple[Tuple[IPv4Address, int], ...]
    #: Every on-tree vif (parent + children).
    tree_vifs: FrozenSet[int]
    #: Every tree neighbour as (address, vif): the parent first, then
    #: ``children`` — the order native mode transmits in.
    targets: Tuple[Tuple[IPv4Address, int], ...]
    #: ``targets`` grouped per interface, ascending vif — the order
    #: CBT mode transmits in.
    fanout: Tuple[Tuple[int, Tuple[IPv4Address, ...]], ...]

    @classmethod
    def from_user_entry(cls, entry) -> "KernelEntry":
        children = tuple(sorted(entry.children.items()))
        targets = children
        if entry.parent_address is not None:
            targets = ((entry.parent_address, entry.parent_vif),) + children
        by_vif: Dict[int, List[IPv4Address]] = {}
        for address, vif in targets:
            by_vif.setdefault(vif, []).append(address)
        return cls(
            group=entry.group,
            parent_address=entry.parent_address,
            parent_vif=entry.parent_vif,
            children=children,
            tree_vifs=frozenset(by_vif),
            targets=targets,
            fanout=tuple((vif, tuple(by_vif[vif])) for vif in sorted(by_vif)),
        )
