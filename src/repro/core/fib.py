"""The CBT Forwarding Information Base (spec §5, Figure 4).

A FIB entry records, per group, the parent (address + vif) and the set
of children (address + vif each).  The spec keeps subnets with member
presence in a *separate* table relating to IGMP; we mirror that split:
member subnets live in :class:`repro.igmp.router_side.MembershipDatabase`,
not here.

The spec's user-space/kernel split (user-space tree building downloads
FIB entries into the kernel, §3) is modelled by keeping the FIB as its
own object that the forwarding module reads — changes are "downloaded"
simply by being visible immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv4Address
from typing import Dict, Iterator, List, Optional, Tuple

from repro.telemetry import Counter, NULL_COUNTER


@dataclass
class FIBEntry:
    """Parent/child relationships for one group on one router."""

    group: IPv4Address
    #: Parent router address; None on the router acting as tree root
    #: for this branch (the primary core has no parent, spec §5).
    parent_address: Optional[IPv4Address] = None
    #: vif index of the interface leading to the parent.
    parent_vif: Optional[int] = None
    #: child address -> vif index of the interface leading to it.
    children: Dict[IPv4Address, int] = field(default_factory=dict)

    @property
    def has_parent(self) -> bool:
        return self.parent_address is not None

    @property
    def has_children(self) -> bool:
        return bool(self.children)

    def add_child(self, address: IPv4Address, vif: int) -> None:
        self.children[address] = vif

    def remove_child(self, address: IPv4Address) -> bool:
        return self.children.pop(address, None) is not None

    def set_parent(self, address: IPv4Address, vif: int) -> None:
        self.parent_address = address
        self.parent_vif = vif

    def clear_parent(self) -> None:
        self.parent_address = None
        self.parent_vif = None

    def child_vifs(self) -> List[int]:
        """Distinct vif indices with at least one child behind them."""
        return sorted(set(self.children.values()))

    def children_on_vif(self, vif: int) -> List[IPv4Address]:
        return sorted(a for a, v in self.children.items() if v == vif)

    def tree_vifs(self) -> List[int]:
        """All on-tree vif indices (parent + children)."""
        vifs = set(self.children.values())
        if self.parent_vif is not None:
            vifs.add(self.parent_vif)
        return sorted(vifs)

    def is_tree_interface(self, vif: int) -> bool:
        return vif in self.tree_vifs()

    def state_size(self) -> int:
        """Number of stored (address, vif) pairs — the E1 state metric."""
        return len(self.children) + (1 if self.has_parent else 0)


class FIB:
    """All of one router's group entries.

    Entry creation/removal is counted against telemetry counters bound
    via :meth:`bind_counters`, so ``adds - removes == len(fib)`` is a
    checkable conservation law.
    """

    def __init__(self) -> None:
        self._entries: Dict[IPv4Address, FIBEntry] = {}
        self._adds: Counter = NULL_COUNTER
        self._removes: Counter = NULL_COUNTER

    def bind_counters(self, adds: Counter, removes: Counter) -> None:
        """Attach add/remove counters (the owning protocol does this)."""
        self._adds = adds
        self._removes = removes

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FIBEntry]:
        return iter(self._entries.values())

    def __contains__(self, group: IPv4Address) -> bool:
        return group in self._entries

    def get(self, group: IPv4Address) -> Optional[FIBEntry]:
        return self._entries.get(group)

    def get_or_create(self, group: IPv4Address) -> FIBEntry:
        entry = self._entries.get(group)
        if entry is None:
            entry = FIBEntry(group=group)
            self._entries[group] = entry
            self._adds.inc()
        return entry

    def remove(self, group: IPv4Address) -> None:
        if self._entries.pop(group, None) is not None:
            self._removes.inc()

    def groups(self) -> List[IPv4Address]:
        return sorted(self._entries, key=int)

    def entries(self) -> List[FIBEntry]:
        return [self._entries[g] for g in self.groups()]

    def total_state(self) -> int:
        """Total stored relationships across groups (E1 state metric)."""
        return sum(entry.state_size() for entry in self._entries.values())

    def parent_child_pairs(self) -> List[Tuple[IPv4Address, IPv4Address, IPv4Address]]:
        """(group, parent, child) triples; diagnostic/metrics helper."""
        out = []
        for entry in self._entries.values():
            for child in entry.children:
                parent = entry.parent_address
                out.append((entry.group, parent, child))
        return out
