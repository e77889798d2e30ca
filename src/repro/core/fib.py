"""The CBT Forwarding Information Base (spec §5, Figure 4).

A FIB entry records, per group, the parent (address + vif) and the set
of children (address + vif each).  The spec keeps subnets with member
presence in a *separate* table relating to IGMP; we mirror that split:
member subnets live in :class:`repro.igmp.router_side.MembershipDatabase`,
not here.

The spec's user-space/kernel split (user-space tree building downloads
FIB entries into the kernel, §3): every mutator of a :class:`FIBEntry`
recompiles, as it occurs, the immutable
:class:`repro.core.kernel.KernelEntry` the forwarding module reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.kernel import KernelEntry
from repro.netsim.address import IPv4Address
from repro.telemetry import Counter


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
    #: §6 keepalive clocks: the parent's last ECHO_REPLY time and each
    #: child's last ECHO_REQUEST time.  The protocol writes them as
    #: replies and requests arrive; :meth:`clear_parent` and
    #: :meth:`remove_child` drop them with the relation.  Not part of
    #: the downloaded entry.
    parent_replied_at: Optional[float] = field(
        default=None, repr=False, compare=False
    )
    child_heard_at: Dict[IPv4Address, float] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The downloaded entry (§3).  ``children`` / ``parent_*`` are
    #: written only by the four mutators below, each of which
    #: recompiles it.
    kernel: KernelEntry = field(init=False, repr=False, compare=False)
    #: The owning table's download count (none yet while the entry is
    #: being constructed).  The counter, not the table: an entry that
    #: pointed back at its table would be a reference cycle per group.
    _downloads: Optional[Counter] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._download()

    def _download(self) -> None:
        self.kernel = KernelEntry.from_user_entry(self)
        if self._downloads is not None:
            self._downloads.value += 1

    @property
    def has_parent(self) -> bool:
        return self.parent_address is not None

    @property
    def has_children(self) -> bool:
        return bool(self.children)

    def add_child(self, address: IPv4Address, vif: int) -> None:
        if self.children.get(address) != vif:
            self.children[address] = vif
            self._download()

    def remove_child(self, address: IPv4Address) -> bool:
        if self.children.pop(address, None) is None:
            return False
        self.child_heard_at.pop(address, None)
        self._download()
        return True

    def set_parent(self, address: IPv4Address, vif: int) -> None:
        if (self.parent_address, self.parent_vif) != (address, vif):
            self.parent_address = address
            self.parent_vif = vif
            self._download()

    def clear_parent(self) -> None:
        self.parent_replied_at = None
        if self.parent_address is not None:
            self.parent_address = None
            self.parent_vif = None
            self._download()

    def state_size(self) -> int:
        """Number of stored (address, vif) pairs — the E1 state metric."""
        return len(self.children) + (1 if self.has_parent else 0)


class FIB:
    """All of one router's group entries.

    Entry creation/removal is counted in :attr:`fib_adds` /
    :attr:`fib_removes`, so ``adds - removes == len(fib)`` is a
    checkable conservation law; the registry reads them, with
    :attr:`fib_entries` and :attr:`fib_state`, as statistics of the
    owning router (``TreeStats``).  ``downloads`` / ``deletions`` count
    the §3 kernel updates: one download per entry change, one deletion
    per removed entry.
    """

    def __init__(self) -> None:
        #: group -> entry.  Read-only outside this class; observers that
        #: sweep every router test it (truth, ``in``) directly, one C
        #: call where ``len(fib)`` / ``group in fib`` are Python calls.
        self.by_group: Dict[IPv4Address, FIBEntry] = {}
        self._downloads = Counter("fib_downloads")
        self.deletions = 0
        self.fib_adds = 0
        self.fib_removes = 0

    @property
    def downloads(self) -> int:
        return self._downloads.value

    @property
    def fib_entries(self) -> int:
        return len(self.by_group)

    @property
    def fib_state(self) -> int:
        return self.total_state()

    def __len__(self) -> int:
        return len(self.by_group)

    def __iter__(self) -> Iterator[FIBEntry]:
        return iter(self.by_group.values())

    def __contains__(self, group: IPv4Address) -> bool:
        return group in self.by_group

    def get(self, group: IPv4Address) -> Optional[FIBEntry]:
        return self.by_group.get(group)

    def get_or_create(self, group: IPv4Address) -> FIBEntry:
        entry = self.by_group.get(group)
        if entry is None:
            entry = FIBEntry(group=group)
            entry._downloads = self._downloads
            self.by_group[group] = entry
            self.fib_adds += 1
        return entry

    def remove(self, group: IPv4Address) -> None:
        entry = self.by_group.pop(group, None)
        if entry is not None:
            entry._downloads = None
            self.fib_removes += 1
            self.deletions += 1

    def groups(self) -> List[IPv4Address]:
        return sorted(self.by_group, key=int)

    def entries(self) -> List[FIBEntry]:
        return [self.by_group[g] for g in self.groups()]

    def total_state(self) -> int:
        """Total stored relationships across groups (E1 state metric)."""
        return sum(entry.state_size() for entry in self.by_group.values())
