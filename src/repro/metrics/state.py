"""Router state census (experiment E1).

The paper's headline scaling claim: a CBT router stores O(#groups)
state (one FIB entry per group it is on-tree for), while
flood-and-prune routers store O(#sources x #groups) — and, worse,
store it in *every* router of the topology, member or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class StateCensus:
    """Aggregate state snapshot across a domain's routers."""

    per_router: Dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.per_router.values())

    @property
    def max_router(self) -> int:
        return max(self.per_router.values()) if self.per_router else 0

    @property
    def routers_with_state(self) -> int:
        return sum(1 for v in self.per_router.values() if v > 0)


def cbt_state_census(domain) -> StateCensus:
    """FIB relationships per router for a :class:`CBTDomain`."""
    return StateCensus(
        per_router={
            name: protocol.fib.total_state()
            for name, protocol in domain.protocols.items()
        }
    )


def cbt_entry_census(domain) -> StateCensus:
    """FIB *entries* (groups) per router — the O(G) headline count."""
    return StateCensus(
        per_router={
            name: len(protocol.fib)
            for name, protocol in domain.protocols.items()
        }
    )


def dvmrp_state_census(domain) -> StateCensus:
    """(S,G)+prune records per router for a :class:`DVMRPDomain`."""
    return StateCensus(
        per_router={
            name: protocol.state_size()
            for name, protocol in domain.protocols.items()
        }
    )


def dvmrp_entry_census(domain) -> StateCensus:
    """(S,G) entries per router — the O(S*G) headline count."""
    return StateCensus(
        per_router={
            name: len(protocol.entries)
            for name, protocol in domain.protocols.items()
        }
    )
