"""Deterministic fault injectors for chaos campaigns.

Everything in this module is replayable: loss and jitter processes are
driven by private :class:`random.Random` instances seeded explicitly,
and timed faults are expressed as a :class:`FaultSchedule` — a list of
declarative events applied onto a network's scheduler.  Running the
same schedule against the same network twice produces byte-identical
simulations, which is what lets the campaign runner assert that
recovery behaviour is deterministic per seed.

A fault event is what its actions do, and :meth:`FaultSchedule.apply`
is the one applier (chaos cells, baseline-compare legs, the explorer):
each action fires tagged ``("fault", description, 0)`` and publishes a
``fault`` record on the trace bus, the one store of fired faults.

Injector inventory:

* :class:`SeededLoss`    — per-link Bernoulli loss process;
* :class:`SeededJitter`  — per-datagram extra propagation delay;
* :class:`LinkFlap`      — timed link down/up;
* :class:`Partition`     — a set of links down for an interval;
* :class:`NodeOutage`    — node crash (all interfaces down) / restart;
* :class:`LossBurst`     — seeded loss on a link for an interval;
* :class:`JitterBurst`   — seeded delay jitter on a link for an interval.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.netsim.packet import IPDatagram
from repro.telemetry import FaultEvent as TraceFaultEvent


def derive_seed(base: int, *labels: object) -> int:
    """Stable sub-seed from a base seed and labels (never ``hash()``,
    which is randomised per interpreter run)."""
    text = ":".join(str(label) for label in labels)
    return (base * 1_000_003 + zlib.crc32(text.encode())) & 0x7FFFFFFF


class SeededLoss:
    """Bernoulli loss: drop each datagram with probability ``rate``.

    Usable directly as ``Link.loss``.
    """

    def __init__(self, rate: float, seed: int) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self._rng = random.Random(seed)
        self.offered = 0
        self.dropped = 0

    def __call__(self, datagram: IPDatagram) -> bool:
        self.offered += 1
        if self._rng.random() < self.rate:
            self.dropped += 1
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"SeededLoss(rate={self.rate}, seed={self.seed}, "
            f"dropped={self.dropped}/{self.offered})"
        )


class SeededJitter:
    """Uniform extra delay in ``[0, max_delay]`` per datagram.

    Usable directly as ``Link.jitter``; deterministic for a seed.
    """

    def __init__(self, max_delay: float, seed: int) -> None:
        if max_delay < 0:
            raise ValueError(f"max_delay must be non-negative, got {max_delay}")
        self.max_delay = max_delay
        self.seed = seed
        self._rng = random.Random(seed)

    def __call__(self, datagram: IPDatagram) -> float:
        return self._rng.random() * self.max_delay

    def __repr__(self) -> str:
        return f"SeededJitter(max_delay={self.max_delay}, seed={self.seed})"


# -- timed fault events -----------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One declarative fault from ``at`` to ``at + duration``;
    subclasses provide the timed actions.

    ``actions(network)`` returns ``(at_time, description, callable)``
    triples; the schedule registers them with the network's scheduler.
    """

    at: float
    duration: float = 0.0

    def actions(self, network) -> List[Tuple[float, str, Callable[[], None]]]:
        raise NotImplementedError

    def end_time(self) -> float:
        return self.at + self.duration


@dataclass(frozen=True)
class LinkFlap(FaultEvent):
    """Take ``link`` down at ``at`` and restore it after ``duration``."""

    link: str = ""

    def actions(self, network):
        return [
            (
                self.at,
                f"link {self.link} down",
                lambda: network.fail_link(self.link),
            ),
            (
                self.at + self.duration,
                f"link {self.link} up",
                lambda: network.restore_link(self.link),
            ),
        ]


@dataclass(frozen=True)
class Partition(FaultEvent):
    """Down a set of links together (a cut) and heal after ``duration``."""

    links: Tuple[str, ...] = ()

    def actions(self, network):
        def cut() -> None:
            for name in self.links:
                network.links[name].set_up(False)
            network.converge()

        def heal() -> None:
            for name in self.links:
                network.links[name].set_up(True)
            network.converge()

        names = ",".join(self.links)
        return [
            (self.at, f"partition cut [{names}]", cut),
            (self.at + self.duration, f"partition heal [{names}]", heal),
        ]


@dataclass(frozen=True)
class NodeOutage(FaultEvent):
    """Crash a node and restart it after ``duration``.  The crash only
    takes every interface down: the node's protocol state is kept and
    its timers keep firing (its sends go nowhere), so this is neither a
    freeze nor a wipe."""

    node: str = ""

    def actions(self, network):
        def crash() -> None:
            network.fail_router(self.node)

        def restart() -> None:
            network.restore_router(self.node)

        return [
            (self.at, f"node {self.node} crash", crash),
            (self.at + self.duration, f"node {self.node} restart", restart),
        ]


@dataclass(frozen=True)
class LossBurst(FaultEvent):
    """Seeded Bernoulli loss on ``link`` for ``duration`` seconds.

    The previous loss process (if any) is saved and restored when the
    burst ends, so bursts compose with static loss models.
    """

    link: str = ""
    rate: float = 0.3
    seed: int = 0

    def actions(self, network):
        saved: List[object] = []

        def start() -> None:
            link = network.links[self.link]
            saved.append(link.loss)
            link.loss = SeededLoss(self.rate, self.seed)

        def stop() -> None:
            network.links[self.link].loss = saved.pop() if saved else None

        return [
            (self.at, f"loss {self.rate:g} on {self.link}", start),
            (self.at + self.duration, f"loss off {self.link}", stop),
        ]


@dataclass(frozen=True)
class JitterBurst(FaultEvent):
    """Seeded delay jitter on ``link`` for ``duration`` seconds."""

    link: str = ""
    max_delay: float = 0.05
    seed: int = 0

    def actions(self, network):
        saved: List[object] = []

        def start() -> None:
            link = network.links[self.link]
            saved.append(link.jitter)
            link.jitter = SeededJitter(self.max_delay, self.seed)

        def stop() -> None:
            network.links[self.link].jitter = saved.pop() if saved else None

        return [
            (self.at, f"jitter {self.max_delay:g}s on {self.link}", start),
            (self.at + self.duration, f"jitter off {self.link}", stop),
        ]


@dataclass
class FaultSchedule:
    """A replayable set of timed faults for one campaign run."""

    events: List[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultSchedule":
        self.events.append(event)
        return self

    @property
    def last_time(self) -> float:
        """Sim time at which the final fault action fires (0 if empty)."""
        return max((event.end_time() for event in self.events), default=0.0)

    def apply(self, network) -> None:
        """Register every action with the network's scheduler, tagged so
        a pending fault shows in the explorer's in-flight state."""
        scheduler = network.scheduler
        for event in self.events:
            for at, description, action in event.actions(network):
                tag = ("fault", description, 0)
                scheduler.call_at(at, _fire, scheduler, description, action, tag=tag)


def _fire(scheduler, description: str, action) -> None:
    scheduler.telemetry.bus.publish(
        TraceFaultEvent(time=scheduler.now, description=description)
    )
    action()


def fired_faults(network) -> List[Tuple[float, str]]:
    """``(time, description)`` of each fault action fired so far, read
    off the trace bus; call it before the network closes."""
    return [(f.time, f.description) for f in network.telemetry.bus.records("fault")]
