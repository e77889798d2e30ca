"""Default timer values (spec §9).

All values are seconds and match the spec's recommended defaults; every
one is configurable per protocol instance, which is what the timer
benchmarks sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dr import HELLO_HOLD_TIME, HELLO_INTERVAL


@dataclass(frozen=True)
class CBTTimers:
    """The spec §9 table, field for field."""

    #: Time between successive CBT-ECHO-REQUESTs to the parent.
    echo_interval: float = 30.0

    #: Retransmission time for a join-request when no ack arrives.
    pend_join_interval: float = 10.0

    #: Time after which a different core is tried (or the join abandoned).
    pend_join_timeout: float = 30.0

    #: Remove transient state for a join that was never acknowledged.
    expire_pending_join: float = 90.0

    #: Time without echo replies after which the parent is unreachable.
    echo_timeout: float = 90.0

    #: Interval for checking when each child last sent an echo.
    child_assert_interval: float = 90.0

    #: Remove child state when no echo arrived for this long.
    child_assert_expire: float = 180.0

    #: Interval between scans of directly connected subnets for group
    #: presence; a leaf router with no members sends a QUIT.
    iff_scan_interval: float = 300.0

    #: Total time a rejoining router keeps trying alternate cores
    #: before giving up (spec §6.1: 90 s recommended).
    reconnect_timeout: float = 90.0

    # HELLO cadence scales with the profile (as the echo interval does)
    # so neighbour / tree-announcement liveness tracks the rest of the
    # protocol.

    @property
    def hello_interval(self) -> float:
        return HELLO_INTERVAL * (self.echo_interval / DEFAULT_TIMERS.echo_interval)

    @property
    def hello_hold(self) -> float:
        return HELLO_HOLD_TIME * (self.echo_interval / DEFAULT_TIMERS.echo_interval)

    def scaled(self, factor: float) -> "CBTTimers":
        """Uniformly scaled copy — used by fast-converging test setups."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return CBTTimers(
            echo_interval=self.echo_interval * factor,
            pend_join_interval=self.pend_join_interval * factor,
            pend_join_timeout=self.pend_join_timeout * factor,
            expire_pending_join=self.expire_pending_join * factor,
            echo_timeout=self.echo_timeout * factor,
            child_assert_interval=self.child_assert_interval * factor,
            child_assert_expire=self.child_assert_expire * factor,
            iff_scan_interval=self.iff_scan_interval * factor,
            reconnect_timeout=self.reconnect_timeout * factor,
        )


#: The spec's recommended defaults, importable as a ready-made instance.
DEFAULT_TIMERS = CBTTimers()
