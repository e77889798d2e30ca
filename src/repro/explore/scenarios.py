"""Exploration scenarios: each one a data spec on a cell's world, whose
interesting concurrency lives inside a short *window* the explorer
branches over.

A spec names a :data:`repro.harness.campaign.TOPOLOGIES` row and a leg
(a :data:`repro.harness.campaign.LEGS` row, the one protocol table
cells run too).  :meth:`ExploreScenario.build` makes
its world the way a cell does: the row's network and cores, stood up
through the :mod:`repro.harness.scenarios` stand-up (started
protocols, elections settled, the pre-joined members joined — all
outside the explored window, with defaults, so every run starts from
the identical state).  The window actions are data too — ``join`` /
``leave`` / ``send`` / ``migrate``, each at an offset from the window
start — as are the fault candidates, :class:`FaultEvent` s the engine
offers as the first decision.  After the window the run settles with
no interference and the leg's convergence oracle judges the world
(the dense-mode legs by a probe from the window's ``send`` host).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.migration import MigrationCoordinator
from repro.explore.engine import ExploreOptions
from repro.harness.campaign import LEGS, TOPOLOGIES, Leg
from repro.harness.scenarios import SETTLE_TIME, send_one
from repro.netsim.address import IPv4Address
from repro.netsim.faults import FaultEvent, LinkFlap, NodeOutage
from repro.topology.builder import Network


@dataclass
class ExploreWorld:
    """One freshly built simulation ready for a controlled window."""

    network: Network
    domain: Any
    group: IPv4Address
    #: Hosts expected to be served members once everything settles.
    members: List[str]
    #: ``(offset_from_window_start, action)`` pairs the runner schedules.
    actions: List[Tuple[float, Callable[[], None]]]
    #: The window's first ``send`` host (None without one): the dense
    #: rows' probe source.
    sender: Optional[str]

    def close(self) -> None:
        """The world ends with its network (``netsim.engine.cell``)."""
        self.network.close()


#: Window verbs, ``verb(domain, group, subject)``: ``join`` / ``leave``
#: / ``send`` name a host, ``migrate`` the new core list (a
#: make-before-break handover, :mod:`repro.core.migration`).
VERBS: Dict[str, Callable[[Any, IPv4Address, Any], None]] = {
    "join": lambda domain, group, host: domain.join_host(host, group),
    "leave": lambda domain, group, host: domain.leave_host(host, group),
    "send": lambda domain, group, host: send_one(
        domain.network.host(host), group, ttl=64, uids=[]
    ),
    "migrate": lambda domain, group, cores: MigrationCoordinator(
        domain, group, stretch_threshold=1.0
    ).migrate(list(cores)),
}


@dataclass(frozen=True)
class ExploreScenario:
    """A named, explorable situation: a world and its window, as data."""

    name: str
    description: str
    #: :data:`~repro.harness.campaign.TOPOLOGIES` row the world is
    #: built on (its seed-0 network and cores).
    topology: str
    #: :data:`~repro.harness.campaign.LEGS` row: the protocol, its
    #: stand-up and oracles.
    leg: str
    #: Hosts joined before the window, ``join_spacing`` apart.
    pre_members: Tuple[str, ...]
    #: Hosts expected to be served members once everything settles.
    members: Tuple[str, ...]
    #: ``(offset_from_window_start, verb, subject)``, a :data:`VERBS`
    #: entry each.
    actions: Tuple[Tuple[float, str, Any], ...]
    #: Seconds of controlled (explored) simulation after activation.
    window: float
    #: Additional uncontrolled seconds before the convergence oracle.
    settle: float
    #: Message types eligible for drop decisions.
    gate_types: Tuple[str, ...]
    #: Candidate faults offered as the first decision (index 0 = none),
    #: ``at`` an offset from the window start.
    faults: Tuple[FaultEvent, ...] = ()
    #: Hard loop check per transition (off when faults legitimise
    #: transient §6.3 loops mid-window).
    check_loops: bool = True
    #: Seconds of elections before the group is created; the stand-up
    #: then runs 2 s past the last pre-join, so the window opens at
    #: ``settle_time + len(pre_members) * join_spacing + 2``.
    settle_time: float = SETTLE_TIME
    join_spacing: float = 0.05

    @property
    def row(self) -> Leg:
        return LEGS[self.leg]

    def build(self) -> ExploreWorld:
        """A fresh world: the topology row's network and cores, the
        leg's stand-up (no auditor: the leg's oracles judge the run),
        and the window actions bound to its domain."""
        network, _hosts, cores = TOPOLOGIES[self.topology].build(0)
        domain, group = self.row.build(
            network,
            self.pre_members,
            cores,
            settle_time=self.settle_time,
            join_spacing=self.join_spacing,
        )
        actions = [
            (offset, partial(VERBS[verb], domain, group, subject))
            for offset, verb, subject in self.actions
        ]
        sender = next((host for _, verb, host in self.actions if verb == "send"), None)
        return ExploreWorld(network, domain, group, list(self.members), actions, sender)


_JOIN_GATES = ("JOIN_REQUEST", "JOIN_ACK")
_JOIN_QUIT_GATES = ("JOIN_REQUEST", "JOIN_ACK", "QUIT_REQUEST", "QUIT_ACK")

#: Registry consulted by the CLI and by schedule replay.
SCENARIOS: Dict[str, ExploreScenario] = {
    scenario.name: scenario
    for scenario in (
        ExploreScenario(
            name="joins-race",
            description=(
                "Hosts A, G and H join at the same instant from three "
                "corners of Figure 1; explores delivery order and loss "
                "of the racing JOIN_REQUEST / JOIN_ACK handshakes."
            ),
            topology="figure1",
            leg="cbt",
            pre_members=(),
            members=("A", "G", "H"),
            actions=((0.0, "join", "A"), (0.0, "join", "G"), (0.0, "join", "H")),
            window=4.0,
            settle=9.0,
            gate_types=_JOIN_GATES,
            # No pre-joins: the stand-up's 2 s drain opens the window at
            # t = 3, as for the others' settled elections.
            settle_time=1.0,
        ),
        # H leaves at t+0; IGMP membership expiry takes ~4.02s, after
        # which R10 sends QUIT_REQUEST toward R9.  J joins through the
        # same R10 at t+4.03 so its membership report lands while the
        # QUIT handshake is in flight — the §5.3 race the explorer then
        # perturbs (orderings, QUIT/JOIN drops).
        ExploreScenario(
            name="quit-race",
            description=(
                "H leaves while J joins through the same routers "
                "(R10/R9); explores the §5.3 QUIT vs JOIN race and "
                "loss of QUIT_REQUEST / QUIT_ACK (the PR-2 stale "
                "quit-retry class)."
            ),
            topology="figure1",
            leg="cbt",
            pre_members=("A", "B", "H"),
            members=("A", "B", "J"),
            actions=((0.0, "leave", "H"), (4.03, "join", "J")),
            window=5.5,
            settle=9.0,
            gate_types=_JOIN_QUIT_GATES,
        ),
        ExploreScenario(
            name="lan-proxy",
            description=(
                "B joins on the multi-router LAN S4 (R2/R5/R6 "
                "proxy-ack machinery) while E joins elsewhere; "
                "explores JOIN delivery order and loss on the shared "
                "LAN (the PR-2 proxy-ack class)."
            ),
            topology="figure1",
            leg="cbt",
            pre_members=("A",),
            members=("A", "B", "E"),
            actions=((0.0, "join", "B"), (0.0, "join", "E")),
            window=4.0,
            settle=9.0,
            gate_types=_JOIN_GATES,
        ),
        # One short fault on/near E's join path (R7 -> R4).
        ExploreScenario(
            name="flap-join",
            description=(
                "E joins while one short fault is placed as an "
                "explored choice: flap the join-path link, flap an "
                "established tree link, or crash the joining DR."
            ),
            topology="figure1",
            leg="cbt",
            pre_members=("A", "H"),
            members=("A", "H", "E"),
            actions=((0.1, "join", "E"),),
            window=6.0,
            settle=12.0,
            gate_types=_JOIN_GATES,
            faults=(
                LinkFlap(at=0.3, link="L_R4_R7", duration=0.8),
                LinkFlap(at=0.3, link="L_R3_R4", duration=0.8),
                NodeOutage(at=0.3, node="R7", duration=0.8),
            ),
            check_loops=False,
        ),
        # H's leave puts a QUIT in flight just as the handover announces
        # (promotion of the on-tree secondary R9 to primary — the stale
        # parent-shedding path), and J's join lands in the window where
        # the old primary R4 retires.  The explorer perturbs delivery
        # order and loss of the racing JOIN/QUIT handshakes across all
        # three phases.
        ExploreScenario(
            name="migration-race",
            description=(
                "A make-before-break core handover (R4 -> R9) races a "
                "member's quit (in flight at announcement) and a fresh "
                "join (landing at retirement); explores delivery order "
                "and loss of the JOIN/QUIT handshakes spanning the "
                "announce, graft, and retire phases."
            ),
            topology="figure1",
            leg="cbt",
            pre_members=("A", "B", "H"),
            members=("A", "B", "J"),
            actions=(
                (0.0, "leave", "H"),
                (4.05, "migrate", ("R9", "R2")),
                (6.0, "join", "J"),
            ),
            window=7.0,
            settle=12.0,
            gate_types=_JOIN_QUIT_GATES,
            check_loops=False,
        ),
        # The hard-state comparator's smoke validation: same explorer,
        # the hpimdm leg's oracles and timers.  B's first data packet
        # (from the multi-router LAN S4, so R2/R5/R6 all see it)
        # creates the (S, G) entries and kicks off the assert elections
        # the explorer then perturbs: G and H join concurrently, so
        # interest propagation races the elections themselves.  A is
        # pre-joined outside the window for a stable baseline branch.
        ExploreScenario(
            name="hpimdm-elections",
            description=(
                "HPIM-DM comparator smoke: G and H join while B's "
                "first data packet (on the multi-router LAN S4) "
                "triggers the per-link assert elections; explores "
                "delivery order and loss of the sequence-numbered "
                "Assert/Interest/Ack handshakes and checks election "
                "convergence, full acknowledgement, and exactly-once "
                "probe delivery."
            ),
            topology="figure1",
            leg="hpimdm",
            pre_members=("A",),
            members=("A", "G", "H"),
            actions=((0.0, "join", "G"), (0.0, "join", "H"), (0.2, "send", "B")),
            window=4.0,
            settle=8.0,
            gate_types=("HpimAssert", "HpimInterest", "HpimAck"),
            check_loops=False,
            join_spacing=0.0,
        ),
    )
}


def get_scenario(name: str) -> ExploreScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_options(scenario: ExploreScenario, **overrides) -> ExploreOptions:
    """Build :class:`~repro.explore.engine.ExploreOptions` seeded with
    the scenario's gate types and its leg's quiet types; ``overrides``
    win."""
    overrides.setdefault("gate_types", scenario.gate_types)
    overrides.setdefault("quiet_types", scenario.row.quiet_types)
    return ExploreOptions(**overrides)
