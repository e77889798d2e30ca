"""Designated-router election (spec §2.3).

The rules, verbatim from the spec:

* The CBT **default DR (D-DR)** on a subnet is the subnet's IGMP
  querier — "in CBT these two roles go hand-in-hand", so the election
  costs no extra protocol overhead.
* If the elected querier is **not CBT-capable** (mixed-protocol LANs),
  the D-DR is implicitly the lowest-addressed CBT router on the link.
* The **group-specific DR (G-DR)** is whichever router sent (or, in
  the common case, received) the join-ack for the group — proxy-ack
  handling in :mod:`repro.core.router` assigns that role; this module
  only answers "am I the D-DR on this interface?".

CBT routers learn which neighbours are CBT-capable from HELLO beacons
(the -02/-03 draft requires routers to "keep track of their immediate
CBT neighbouring routers" without giving a message; CBTv2/RFC 2189
later added HELLO, which we follow).  The record is the neighbour table
every leg keeps (:class:`repro.routing.neighbours.NeighbourTable`,
holding for ``timers.hello_hold``); :class:`CBTNeighbourTable` adds the
groups each neighbour's HELLOs announce.  HELLOs go on multi-access
links only (``Link.multi_access``): everything this module answers is a
LAN question, and a router-to-router point-to-point link has no LAN to
elect for — its parent/child pair is kept alive by ECHOs (§6.1).  So
the table holds LAN peers only.

The D-DR itself is the IGMP querier and needs no HELLO; every reader
of one is another CBT router on the LAN.  So a router HELLOs an up LAN
interface (a) every interval while a CBT neighbour is live there
(``NeighbourTable.has_live``), (b) at the first tick after the
interface was down or did not exist, and (c) otherwise once per hold
time — ``CBTProtocol._hello_tick`` is the one place that decides.  A
LAN holding only hosts gets the start-up pair and then one HELLO per
hold time, enough for a router that joins it, or whose start-up HELLOs
were lost, to be found within one hold time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netsim.address import IPv4Address
from repro.netsim.nic import Interface
from repro.routing.neighbours import NeighbourTable

#: Seconds between HELLO beacons on each interface.
HELLO_INTERVAL = 60.0

#: Seconds without a HELLO after which a neighbour is forgotten.
HELLO_HOLD_TIME = 180.0


class CBTNeighbourTable(NeighbourTable):
    """The neighbour table plus what HELLOs announce besides liveness:
    the groups the sender is on-tree for (its "tree responsibility" on
    that LAN) — the CBTv2-style extension that lets LAN peers avoid
    double-serving a member subnet (see DESIGN.md).  An announcement
    lapses after the hold time, and with its neighbour."""

    __slots__ = ("_announced",)

    def __init__(self, hold: float) -> None:
        super().__init__(hold)
        #: vif -> {neighbour address -> {group -> last announced time}}
        self._announced: Dict[int, Dict[IPv4Address, Dict[IPv4Address, float]]] = {}

    def announce(self, vif: int, address: IPv4Address, now: float, groups: tuple) -> None:
        """Record the groups one HELLO announced."""
        announced = self._announced.setdefault(vif, {}).setdefault(address, {})
        for group in groups:
            announced[group] = now

    def expire(self, now: float) -> List[Tuple[int, IPv4Address]]:
        dropped = super().expire(now)
        for vif, address in dropped:
            self._announced.get(vif, {}).pop(address, None)
        hold = self.hold
        for announced in self._announced.values():
            for table in announced.values():
                for group in [g for g, t in table.items() if now - t > hold]:
                    del table[group]
        return dropped

    def forget(self, vif: int, address: IPv4Address) -> None:
        super().forget(vif, address)
        self._announced.get(vif, {}).pop(address, None)

    def tree_announcers(self, vif: int, group: IPv4Address, now: float) -> List[IPv4Address]:
        """Neighbours on ``vif`` that announced on-tree state for
        ``group`` within the hold time."""
        hold = self.hold
        return sorted(
            address
            for address, table in self._announced.get(vif, {}).items()
            if (heard_at := table.get(group)) is not None and now - heard_at <= hold
        )


class DRElection:
    """Answers D-DR questions for one router's interfaces."""

    def __init__(self, igmp_agent, neighbours: NeighbourTable) -> None:
        self._igmp = igmp_agent
        self._neighbours = neighbours

    def is_default_dr(self, interface: Interface) -> bool:
        """True if this router is the CBT D-DR on ``interface``."""
        querier = self._igmp.querier_address(interface)
        if querier == interface.address:
            return True
        if self._neighbours.knows(interface.vif, querier):
            # A CBT-capable querier is the D-DR, and it is not us.
            return False
        # Querier is not CBT-capable: lowest-addressed CBT router wins.
        return interface.address == self._lowest_cbt_address(interface)

    def default_dr_address(self, interface: Interface) -> IPv4Address:
        """Address of the D-DR on ``interface`` as this router sees it."""
        querier = self._igmp.querier_address(interface)
        if querier == interface.address or self._neighbours.knows(
            interface.vif, querier
        ):
            return querier
        return self._lowest_cbt_address(interface)

    def _lowest_cbt_address(self, interface: Interface) -> IPv4Address:
        candidates = [interface.address]
        candidates.extend(self._neighbours.on_vif(interface.vif))
        return min(candidates)
