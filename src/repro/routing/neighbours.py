"""The one neighbour table every multicast leg keeps.

CBT, DVMRP and HPIM-DM learn their neighbouring routers from a beacon
(CBT's HELLO, DVMRP's probe, HPIM-DM's hello): per vif, each
neighbour's last-heard time.  A neighbour is live while ``now - heard
<= hold``; it stays in the table, live or not, until the leg calls
``expire`` (CBT and HPIM-DM at their beacon tick, DVMRP before it
reads who is downstream).  A vif stays listed once a beacon was heard
on it, even after all its neighbours expired.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.netsim.address import IPv4Address

_EMPTY: Dict[IPv4Address, float] = {}


class NeighbourTable:
    """Neighbours per vif, refreshed by beacons, with one hold time."""

    __slots__ = ("hold", "_heard")

    def __init__(self, hold: float) -> None:
        self.hold = hold
        #: vif -> {neighbour address -> last heard time}
        self._heard: Dict[int, Dict[IPv4Address, float]] = {}

    def heard(self, vif: int, address: IPv4Address, now: float) -> bool:
        """Record a beacon; True when the neighbour was not held on
        ``vif`` before."""
        try:  # per beacon: no throwaway dict, no method call
            table = self._heard[vif]
        except KeyError:
            table = self._heard[vif] = {}
        known = len(table)
        table[address] = now
        return len(table) > known

    def expire(self, now: float) -> List[Tuple[int, IPv4Address]]:
        """Drop every neighbour silent past the hold; returns what was
        dropped, in (vif, address) order."""
        hold = self.hold
        dropped = [
            (vif, address)
            for vif, table in self._heard.items()
            for address, heard_at in table.items()
            if now - heard_at > hold
        ]
        if dropped:
            dropped.sort()
            for vif, address in dropped:
                del self._heard[vif][address]
        return dropped

    def live(self, vif: int, now: float) -> Set[IPv4Address]:
        """The neighbours on ``vif`` heard within the hold time."""
        hold = self.hold
        return {a for a, heard_at in self._heard.get(vif, _EMPTY).items() if now - heard_at <= hold}

    def has_live(self, vif: int, now: float) -> bool:
        hold = self.hold
        for heard_at in self._heard.get(vif, _EMPTY).values():
            if now - heard_at <= hold:
                return True
        return False

    def knows(self, vif: int, address: IPv4Address) -> bool:
        """True when ``address`` is in the table on ``vif``, live or not."""
        return address in self._heard.get(vif, _EMPTY)

    def on_vif(self, vif: int) -> Dict[IPv4Address, float]:
        """A copy of ``vif``'s neighbours and when each was last heard."""
        return dict(self._heard.get(vif, _EMPTY))

    def items(self):
        """``(vif, {address: last heard})`` for every vif heard on."""
        return self._heard.items()
