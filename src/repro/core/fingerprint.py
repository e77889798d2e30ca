"""Canonical state fingerprints for state-hash pruning, and CBT's.

Two simulation states with equal fingerprints are treated as
equivalent by the explorer: once one has been expanded, schedules
reaching the other are not branched further.  A fingerprint captures
the protocol-visible state of every router — for CBT, FIB
relationships, pending-join / rejoin / quit bookkeeping, live-timer
flags, IGMP membership, interface health — plus the multiset of
tagged in-flight deliveries.  It deliberately excludes absolute
simulation time and datagram uids (a process-global counter), so
identical explorations in one interpreter produce identical
fingerprints.  Each protocol row of
:data:`repro.harness.campaign.LEGS` names its own; the dense-mode
ones live beside their domains and share :func:`state_digest` and
:func:`igmp_state`.

This is a *pruning heuristic*: the fingerprint does not capture every
pending callback, so pruning can in principle skip a schedule whose
continuation differs.  Bounded search is already incomplete by
construction; the fingerprint trades a sliver of coverage for an
exponential reduction in revisits, exactly as in Helmy & Estrin's
forward search over multicast protocol states.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Tuple

#: CBT keepalives: the delivery types a CBT search never branches on.
DEFAULT_QUIET_TYPES = ("HELLO", "ECHO_REQUEST", "ECHO_REPLY")


def igmp_state(protocol) -> Tuple:
    """Each interface's vif, health and IGMP-joined groups."""
    return tuple(
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


def _protocol_state(name: str, protocol) -> Tuple:
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
    return (name, fib_part, pending_part, rejoin_part, quit_part, igmp_state(protocol))


def state_digest(domain, router_state: Callable[[str, object], Tuple]) -> str:
    """Stable hash of ``router_state(name, protocol)`` for each of the
    domain's routers, by name, and of the multiset of tagged pending
    events (uid component stripped)."""
    parts: List[Tuple] = [
        router_state(name, domain.protocols[name])
        for name in sorted(domain.protocols)
    ]
    parts.append(tuple(sorted(tag[:-1] for tag in domain.network.scheduler.pending_tags())))
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


def domain_fingerprint(domain) -> str:
    """Stable hash of a CBT domain's protocol-visible state."""
    return state_digest(domain, _protocol_state)
