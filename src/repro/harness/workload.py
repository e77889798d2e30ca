"""Dynamic membership workloads (churn) for protocol experiments.

Generates a deterministic schedule of joins and leaves on a
:class:`CBTDomain` or :class:`DVMRPDomain` and collects the protocol's
reaction — the input to the churn benchmark (E12): control traffic as
a function of membership dynamics, which the paper argues is CBT's
steady-state advantage (joins/quits touch one path; flood-and-prune
re-floods on every new source and re-grafts on every arrival).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.netsim.address import IPv4Address
from repro.topology.builder import Network

#: The only membership actions a schedule may carry.
VALID_ACTIONS = ("join", "leave")


class ChurnActionError(ValueError):
    """A schedule carried an action outside :data:`VALID_ACTIONS`.

    Raised at construction: the ``joins``/``leaves`` counters and
    :func:`apply_churn` treat the action as a two-way switch, so an
    unknown string would silently vanish from the books (or be applied
    as a leave) instead of failing loudly.
    """


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change."""

    time: float
    host: str
    action: str  # "join" or "leave"

    def __post_init__(self) -> None:
        if self.action not in VALID_ACTIONS:
            raise ChurnActionError(
                f"unknown churn action {self.action!r} for host "
                f"{self.host!r} at t={self.time}; "
                f"valid: {', '.join(VALID_ACTIONS)}"
            )


@dataclass
class ChurnSchedule:
    """A deterministic join/leave schedule over a host population."""

    events: List[ChurnEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Events may arrive as bare tuples or pre-validated ChurnEvents;
        # re-check so a hand-built list cannot smuggle an unknown action
        # past the counters.
        for event in self.events:
            if event.action not in VALID_ACTIONS:
                raise ChurnActionError(
                    f"unknown churn action {event.action!r} for host "
                    f"{event.host!r} at t={event.time}; "
                    f"valid: {', '.join(VALID_ACTIONS)}"
                )

    @property
    def joins(self) -> int:
        return sum(1 for e in self.events if e.action == "join")

    @property
    def leaves(self) -> int:
        return sum(1 for e in self.events if e.action == "leave")

    def members_at_end(self) -> List[str]:
        """The membership set after every event has fired, from none."""
        members = set()
        for event in sorted(self.events, key=lambda e: e.time):
            if event.action == "join":
                members.add(event.host)
            else:
                members.discard(event.host)
        return sorted(members)


def generate_churn(
    hosts: Sequence[str],
    duration: float,
    mean_interval: float,
    seed: int = 0,
    start: float = 0.0,
) -> ChurnSchedule:
    """Random alternating churn: at exponential-ish intervals a random
    non-member joins or a random member leaves (coin flip, biased to
    join when membership is low)."""
    if mean_interval <= 0:
        raise ValueError(f"mean_interval must be positive, got {mean_interval}")
    rng = random.Random(seed)
    members: set = set()
    events: List[ChurnEvent] = []
    t = start
    while True:
        t += rng.expovariate(1.0 / mean_interval)
        if t >= start + duration:
            break
        want_join = not members or (
            len(members) < len(hosts) and rng.random() < 0.6
        )
        if want_join:
            candidate = rng.choice(sorted(set(hosts) - members))
            members.add(candidate)
            events.append(ChurnEvent(time=t, host=candidate, action="join"))
        else:
            candidate = rng.choice(sorted(members))
            members.discard(candidate)
            events.append(ChurnEvent(time=t, host=candidate, action="leave"))
    return ChurnSchedule(events=events)


def apply_churn(
    network: Network,
    domain,
    group: IPv4Address,
    schedule: ChurnSchedule,
    settle_after: float = 30.0,
) -> None:
    """Schedule every event on the domain and run past the last one."""
    last = 0.0
    for event in schedule.events:
        last = max(last, event.time)
        action = domain.join_host if event.action == "join" else domain.leave_host
        network.scheduler.call_at(event.time, action, event.host, group)
    network.run(until=last + settle_after)
