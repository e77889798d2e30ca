"""Transient per-group protocol state (spec §2.2, §2.5).

A join traversing a CBT router leaves *transient path state* behind —
the incoming/outgoing interface pair — which the corresponding
JOIN_ACK later "fixes" into a FIB entry.  While a router awaits an ack
for a join it forwarded or originated it is in **pending-join state**:
it must not acknowledge further joins for the group, instead caching
them until its own ack arrives.

This module holds those records plus the two other per-group
procedures a router runs: the failure-recovery rejoin (§6.1) and the
quit (§2.7).  Each record owns the timer that drives it; the timer's
arguments name the group, never the record, so no record and timer
refer to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.constants import QUIT_RETRY_LIMIT, JoinSubcode, MessageType
from repro.core.messages import CBTControlMessage
from repro.netsim.address import IPv4Address
from repro.netsim.engine import Timer


@dataclass
class CachedJoin:
    """A join received while this router was itself pending (spec §2.5)."""

    origin: IPv4Address
    subcode: JoinSubcode
    downstream_address: IPv4Address
    downstream_vif: int
    cores: Tuple[IPv4Address, ...]


@dataclass
class PendingJoin:
    """Pending-join state for one group on one router.

    ``upstream_address``/``upstream_vif`` record where this router
    sent the join (the prospective parent); ``downstream`` records the
    previous hop whose join we forwarded, if any (empty when this
    router originated the join as a DR).  ``cached`` holds joins to be
    acknowledged once our own JOIN_ACK arrives.
    """

    group: IPv4Address
    origin: IPv4Address
    subcode: JoinSubcode
    target_core: IPv4Address
    cores: Tuple[IPv4Address, ...]
    upstream_address: IPv4Address
    upstream_vif: int
    created_at: float
    downstream_address: Optional[IPv4Address] = None
    downstream_vif: Optional[int] = None
    cached: List[CachedJoin] = field(default_factory=list)
    retransmit_timer: Optional[Timer] = None
    expiry_timer: Optional[Timer] = None
    retransmissions: int = 0

    @property
    def originated_here(self) -> bool:
        """True when this router (as DR) originated the join."""
        return self.downstream_address is None

    def cache(self, join: CachedJoin) -> None:
        self.cached.append(join)

    def join_request(self) -> CBTControlMessage:
        """The JOIN_REQUEST this router sends (or sent) upstream."""
        return CBTControlMessage(
            msg_type=MessageType.JOIN_REQUEST,
            code=int(self.subcode),
            group=self.group,
            origin=self.origin,
            target_core=self.target_core,
            cores=self.cores,
        )

    def nack(self, cached: CachedJoin) -> CBTControlMessage:
        """The JOIN_NACK that refuses ``cached``, a join cached here."""
        return CBTControlMessage(
            msg_type=MessageType.JOIN_NACK,
            code=0,
            group=self.group,
            origin=cached.origin,
            target_core=self.target_core,
            cores=self.cores,
        )

    def cancel_timers(self) -> None:
        for timer in (self.retransmit_timer, self.expiry_timer):
            if timer is not None:
                timer.cancel()
        self.retransmit_timer = None
        self.expiry_timer = None


@dataclass
class RejoinAttempt:
    """Tracks an in-progress failure-recovery rejoin (spec §6.1).

    A rejoining router cycles through alternate cores until a JOIN_ACK
    arrives or ``reconnect_timeout`` elapses, at which point it gives
    up and flushes its downstream branch so descendants re-attach
    independently.  ``retry_timer`` drives the attempt whenever no
    pending join exists for the group: a rejoin with neither is stuck
    for good.
    """

    group: IPv4Address
    started_at: float
    cores: Tuple[IPv4Address, ...]
    core_index: int = 0
    attempts: int = 0
    retry_timer: Optional[Timer] = None

    def current_core(self) -> IPv4Address:
        return self.cores[self.core_index % len(self.cores)]

    def advance_core(self) -> IPv4Address:
        """Move to the next core in the list (arbitrary alternate, §6.1)."""
        self.core_index = (self.core_index + 1) % len(self.cores)
        self.attempts += 1
        return self.current_core()

    def expired(self, now: float, reconnect_timeout: float) -> bool:
        return now - self.started_at >= reconnect_timeout


@dataclass
class QuitAttempt:
    """An outstanding quit for one group on one router (spec §2.7).

    The QUIT_REQUEST went to ``parent``; ``retry_timer`` resends it
    until a QUIT_ACK from that parent arrives, and when
    ``retries_left`` runs out the router drops its parent state
    unilaterally.
    """

    group: IPv4Address
    parent: IPv4Address
    retries_left: int = QUIT_RETRY_LIMIT
    retry_timer: Optional[Timer] = None
