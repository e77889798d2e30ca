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
later added HELLO, which we follow).  HELLOs go on multi-access links
only (``Link.multi_access``): everything this module answers is a LAN
question, and a router-to-router point-to-point link has no LAN to
elect for — its parent/child pair is kept alive by ECHOs (§6.1).  So
the neighbour table holds LAN peers only.

The D-DR itself is the IGMP querier and needs no HELLO; every reader
of one is another CBT router on the LAN.  So a router HELLOs an up LAN
interface (a) every interval while a CBT neighbour is live there
(:meth:`NeighbourTable.has_live`), (b) at the first tick after the
interface was down or did not exist, and (c) otherwise once per hold
time — ``CBTProtocol._hello_tick`` is the one place that decides.  A
LAN holding only hosts gets the start-up pair and then one HELLO per
hold time, enough for a router that joins it, or whose start-up HELLOs
were lost, to be found within one hold time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.netsim.address import IPv4Address
from repro.netsim.nic import Interface

#: Seconds between HELLO beacons on each interface.
HELLO_INTERVAL = 60.0

#: Seconds without a HELLO after which a neighbour is forgotten.
HELLO_HOLD_TIME = 180.0


@dataclass
class NeighbourTable:
    """CBT neighbours per interface, refreshed by HELLOs.

    Besides liveness, HELLOs announce the groups the sender is
    on-tree for (its "tree responsibility" on that LAN) — the
    CBTv2-style extension that lets LAN peers avoid double-serving a
    member subnet (see DESIGN.md).
    """

    #: vif -> {neighbour address -> last heard time}
    _neighbours: Dict[int, Dict[IPv4Address, float]] = field(default_factory=dict)
    #: vif -> {neighbour address -> {group -> last announced time}}
    _announced: Dict[int, Dict[IPv4Address, Dict[IPv4Address, float]]] = field(
        default_factory=dict
    )

    def heard(
        self,
        vif: int,
        address: IPv4Address,
        now: float,
        groups: tuple = (),
    ) -> bool:
        """Record a HELLO; True when the neighbour was not known before."""
        try:  # per HELLO: no throwaway dict, no method call
            table = self._neighbours[vif]
        except KeyError:
            table = self._neighbours[vif] = {}
        known = len(table)
        table[address] = now
        if groups:
            announced = self._announced.setdefault(vif, {}).setdefault(address, {})
            for group in groups:
                announced[group] = now
        return len(table) > known

    def expire(self, now: float, hold_time: float = HELLO_HOLD_TIME) -> None:
        for vif, table in self._neighbours.items():
            stale = [a for a, t in table.items() if now - t > hold_time]
            for address in stale:
                del table[address]
                self._announced.get(vif, {}).pop(address, None)
        for announced in self._announced.values():
            for table in announced.values():
                gone = [g for g, t in table.items() if now - t > hold_time]
                for group in gone:
                    del table[group]

    def forget(self, vif: int, address: IPv4Address) -> None:
        self._neighbours.get(vif, {}).pop(address, None)
        self._announced.get(vif, {}).pop(address, None)

    def on_vif(self, vif: int) -> Dict[IPv4Address, float]:
        return dict(self._neighbours.get(vif, {}))

    def has_live(
        self, vif: int, now: float, hold_time: float = HELLO_HOLD_TIME
    ) -> bool:
        """True when some CBT neighbour on ``vif`` was heard within
        ``hold_time``."""
        for heard_at in self._neighbours.get(vif, {}).values():
            if now - heard_at <= hold_time:
                return True
        return False

    def is_cbt_capable(self, vif: int, address: IPv4Address) -> bool:
        return address in self._neighbours.get(vif, {})

    def tree_announcers(
        self, vif: int, group: IPv4Address, now: float, hold_time: float = HELLO_HOLD_TIME
    ) -> list:
        """Live neighbours on ``vif`` announcing on-tree state for group."""
        out = []
        for address, table in self._announced.get(vif, {}).items():
            heard_at = table.get(group)
            if heard_at is not None and now - heard_at <= hold_time:
                out.append(address)
        return sorted(out)


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
        if self._neighbours.is_cbt_capable(interface.vif, querier):
            # A CBT-capable querier is the D-DR, and it is not us.
            return False
        # Querier is not CBT-capable: lowest-addressed CBT router wins.
        return interface.address == self._lowest_cbt_address(interface)

    def default_dr_address(self, interface: Interface) -> IPv4Address:
        """Address of the D-DR on ``interface`` as this router sees it."""
        querier = self._igmp.querier_address(interface)
        if querier == interface.address or self._neighbours.is_cbt_capable(
            interface.vif, querier
        ):
            return querier
        return self._lowest_cbt_address(interface)

    def _lowest_cbt_address(self, interface: Interface) -> IPv4Address:
        candidates = [interface.address]
        candidates.extend(self._neighbours.on_vif(interface.vif))
        return min(candidates)
