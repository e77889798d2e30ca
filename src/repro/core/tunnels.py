"""Tunnel configuration and ranked backup interfaces (spec §5.2).

The spec sketches how CBT can operate over a *virtual* topology
without a multicast topology-discovery protocol: each router
pre-configures its tunnels, and per-core **rankings** of interfaces
replace routing — if the highest-ranked interface toward a core is
down, the next-ranked available one is used, and so on.  The FIB
grows a "backup-intfs" notion to match.

:class:`TunnelTable` implements that configuration table; the CBT
router consults it (via :meth:`TunnelTable.resolve`, the one ranked
lookup: the highest-ranked interface that is up, which is the spec's
backup whenever a better one is down) instead of unicast routing for
cores that have rankings configured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.netsim.address import IPv4Address
from repro.netsim.nic import Interface


@dataclass(frozen=True)
class TunnelEntry:
    """One row of the spec's interface configuration table."""

    vif: int
    kind: str  # "phys" or "tunnel"
    mode: str  # "native" or "cbt"
    remote_address: Optional[IPv4Address] = None

    def __post_init__(self) -> None:
        if self.kind not in ("phys", "tunnel"):
            raise ValueError(f"kind must be 'phys' or 'tunnel', got {self.kind!r}")
        if self.mode not in ("native", "cbt"):
            raise ValueError(f"mode must be 'native' or 'cbt', got {self.mode!r}")
        if self.kind == "tunnel" and self.remote_address is None:
            raise ValueError("tunnel entries need a remote address")


class TunnelTable:
    """Per-router tunnel configuration plus per-core interface rankings."""

    def __init__(self) -> None:
        self._entries: Dict[int, TunnelEntry] = {}
        #: core address -> ranked vif list (best first).
        self._rankings: Dict[IPv4Address, List[int]] = {}

    def configure(self, entry: TunnelEntry) -> None:
        self._entries[entry.vif] = entry

    def rank(self, core: IPv4Address, vifs: Sequence[int]) -> None:
        """Set the ranked interface list used to reach ``core``."""
        unknown = [vif for vif in vifs if vif not in self._entries]
        if unknown:
            raise ValueError(f"unconfigured vifs in ranking: {unknown}")
        self._rankings[core] = list(vifs)

    def ranking(self, core: IPv4Address) -> List[int]:
        return list(self._rankings.get(core, []))

    def resolve(
        self, core: IPv4Address, interfaces: Sequence[Interface]
    ) -> Optional[TunnelEntry]:
        """Highest-ranked *available* interface toward ``core``.

        Availability is the simulated interface/link up state — the
        spec assumes tunnel endpoints run "an Hello-like protocol"
        that detects exactly this.
        """
        by_vif = {interface.vif: interface for interface in interfaces}
        for vif in self._rankings.get(core, []):
            interface = by_vif.get(vif)
            if interface is None or not interface.up:
                continue
            if interface.link is not None and not interface.link.up:
                continue
            return self._entries[vif]
        return None
