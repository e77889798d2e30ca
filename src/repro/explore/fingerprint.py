"""Canonical state fingerprints for state-hash pruning.

Two simulation states with equal fingerprints are treated as
equivalent by the explorer: once one has been expanded, schedules
reaching the other are not branched further.  The fingerprint captures
the protocol-visible state of every router — FIB relationships,
pending-join / rejoin / quit bookkeeping, live-timer flags, IGMP
membership, interface health — plus the multiset of tagged in-flight
deliveries.  It deliberately excludes absolute simulation time and
datagram uids (a process-global counter), so identical explorations
in one interpreter produce identical fingerprints.

This is a *pruning heuristic*: the fingerprint does not capture every
pending callback, so pruning can in principle skip a schedule whose
continuation differs.  Bounded search is already incomplete by
construction; the fingerprint trades a sliver of coverage for an
exponential reduction in revisits, exactly as in Helmy & Estrin's
forward search over multicast protocol states.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple


def protocol_state(name: str, protocol) -> Tuple:
    """Canonical tuple of one router's protocol-visible state."""
    fib_part = tuple(
        (
            str(entry.group),
            str(entry.parent_address) if entry.has_parent else "-",
            tuple(sorted(str(child) for child in entry.children)),
        )
        for entry in protocol.fib.entries()
    )
    pending_part = tuple(
        (
            str(group),
            str(pend.target_core),
            pend.retransmissions,
            0,  # a retired field's slot: every visited-state digest hashes it
            len(pend.cached),
            pend.originated_here,
            bool(pend.retransmit_timer is not None and pend.retransmit_timer.pending),
            bool(pend.expiry_timer is not None and pend.expiry_timer.pending),
        )
        for group, pend in sorted(protocol.pending.items())
    )
    rejoin_part = tuple(
        (str(group), attempt.core_index, attempt.attempts)
        for group, attempt in sorted(protocol.rejoins.items())
    )
    quit_part = tuple(
        (
            str(group),
            record.retries_left,
            record.retry_timer is not None and record.retry_timer.pending,
        )
        for group, record in sorted(protocol.quits.items())
    )
    igmp_part = tuple(
        (
            interface.vif,
            interface.up,
            tuple(
                sorted(
                    str(group)
                    for group in protocol.igmp.database.groups_on(interface)
                )
            ),
        )
        for interface in protocol.router.interfaces
    )
    return (name, fib_part, pending_part, rejoin_part, quit_part, igmp_part)


def inflight_state(scheduler) -> Tuple:
    """Multiset of tagged pending events, uid component stripped."""
    return tuple(sorted(tag[:-1] for tag in scheduler.pending_tags()))


def domain_fingerprint(domain) -> str:
    """Stable hash of the whole domain's protocol-visible state."""
    parts: List[Tuple] = [
        protocol_state(name, domain.protocols[name])
        for name in sorted(domain.protocols)
    ]
    parts.append(inflight_state(domain.network.scheduler))
    digest = hashlib.sha1(repr(parts).encode()).hexdigest()
    return digest[:16]


def hpim_protocol_state(name: str, protocol) -> Tuple:
    """Canonical tuple of one HPIM-DM router's hard state.

    Sequence numbers and timestamps are excluded: two states differing
    only in seq counters or ``last_seen`` stamps make identical
    protocol decisions from here on (seqs only order/dedup messages),
    so folding them together is exactly the kind of equivalence the
    pruning heuristic wants.  Unacked advertisements are included by
    content and audience — a pending retransmission *does* change the
    continuation.
    """
    entry_part = tuple(
        (
            str(entry.source),
            str(entry.group),
            entry.upstream_vif,
            tuple(
                (vif, tuple(sorted((str(a), m) for a, (m, _s) in table.items())))
                for vif, table in sorted(entry.claims.items())
            ),
            tuple(
                (vif, tuple(sorted((str(a), i) for a, (i, _s) in table.items())))
                for vif, table in sorted(entry.interests.items())
            ),
            tuple(sorted(entry.my_assert.items())),
            tuple(sorted(entry.my_interest.items())),
        )
        for _key, entry in sorted(
            protocol.entries.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        )
    )
    neighbour_part = tuple(
        (vif, tuple(sorted(str(addr) for addr in table)))
        for vif, table in sorted(protocol.neighbours.items())
    )
    pending_part = tuple(
        sorted(
            (
                vif,
                kind,
                str(source),
                str(group),
                type(pending.message).__name__,
                getattr(pending.message, "metric", None),
                getattr(pending.message, "interested", None),
                tuple(sorted(str(addr) for addr in pending.waiting)),
            )
            for (vif, kind, source, group), pending in protocol._pending.items()
        )
    )
    igmp_part = tuple(
        (
            interface.vif,
            interface.up,
            tuple(
                sorted(
                    str(group)
                    for group in protocol.igmp.database.groups_on(interface)
                )
            ),
        )
        for interface in protocol.router.interfaces
    )
    return (name, entry_part, neighbour_part, pending_part, igmp_part)


def hpim_domain_fingerprint(domain) -> str:
    """Stable hash of an ``HPIMDMDomain``'s protocol-visible state,
    in-flight tagged deliveries included (same convention as
    :func:`domain_fingerprint`)."""
    parts: List[Tuple] = [
        hpim_protocol_state(name, domain.protocols[name])
        for name in sorted(domain.protocols)
    ]
    parts.append(inflight_state(domain.network.scheduler))
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]
