"""Exploration scenarios: small, deterministic Figure-1 set-ups whose
interesting concurrency lives inside a short *window* the explorer
branches over.

Each scenario stands the domain up (started protocols, elections
settled, optional pre-joined members — all outside the explored
window, with defaults, so every run starts from the identical state),
then hands the explorer a list of same-instant *actions* (joins,
leaves) whose message races the search enumerates.  After the window
the run settles with no interference and the convergence oracle is
applied against ``members``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.baselines.hpimdm import HPIMDMDomain
from repro.core.bootstrap import CBTDomain
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, SETTLE_TIME
from repro.netsim.address import IPv4Address, group_address
from repro.netsim.faults import LinkFlap, NodeOutage
from repro.topology.builder import Network
from repro.topology.figures import build_figure1


@dataclass
class ExploreWorld:
    """One freshly built simulation ready for a controlled window."""

    network: Network
    domain: Union[CBTDomain, HPIMDMDomain]
    group: IPv4Address
    #: Hosts expected to be served members once everything settles.
    members: List[str]
    #: ``(offset_from_window_start, action)`` pairs the runner schedules.
    actions: List[Tuple[float, Callable[[], None]]]

    def close(self) -> None:
        """The world ends with its network (``netsim.engine.cell``)."""
        self.network.close()


@dataclass(frozen=True)
class ExploreScenario:
    """A named, explorable situation."""

    name: str
    description: str
    build: Callable[[], ExploreWorld]
    #: Seconds of controlled (explored) simulation after activation.
    window: float
    #: Additional uncontrolled seconds before the convergence oracle.
    settle: float
    #: Message types eligible for drop decisions (None = engine default).
    gate_types: Optional[Tuple[str, ...]] = None
    #: Candidate faults offered as the first decision (index 0 = none).
    fault_candidates: Optional[
        Callable[[ExploreWorld], List[Tuple[str, Callable[[], None]]]]
    ] = None
    #: Hard loop check per transition (off when faults legitimise
    #: transient §6.3 loops mid-window).
    check_loops: bool = True
    #: Extra end-state findings (strings), mainly for tests.
    extra_oracle: Optional[Callable[[ExploreWorld], List[str]]] = None
    #: Delivery types never worth branching (None = engine default,
    #: tuned for CBT keepalives).
    quiet_types: Optional[Tuple[str, ...]] = None
    #: Per-transition hard-invariant oracle (None = the CBT
    #: :func:`repro.explore.oracle.transition_findings`).  Receives the
    #: world, returns finding strings; any finding aborts the run.
    transition_oracle: Optional[Callable[[ExploreWorld], List[str]]] = None
    #: End-state oracle replacing the CBT convergence sweep (None = the
    #: CBT :func:`repro.explore.oracle.convergence_findings`).
    convergence_oracle: Optional[Callable[[ExploreWorld], List[str]]] = None
    #: State fingerprint for pruning (None = the CBT
    #: :func:`repro.explore.fingerprint.domain_fingerprint`).
    state_fingerprint: Optional[Callable[[ExploreWorld], str]] = None


def _stand_up(pre_members: List[str]) -> Tuple[Network, CBTDomain, IPv4Address]:
    """Figure-1 domain with elections settled and ``pre_members`` joined
    (staggered, defaults, outside the explored window).  No packet
    trace: nothing in a search reads it."""
    network = build_figure1(trace_enabled=False)
    domain = CBTDomain(network, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    domain.start()
    network.run(until=SETTLE_TIME)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    if pre_members:
        start = network.scheduler.now
        for index, member in enumerate(pre_members):
            network.scheduler.call_at(
                start + index * 0.05, domain.join_host, member, group
            )
        network.run(until=start + len(pre_members) * 0.05 + 2.0)
    return network, domain, group


def _join(domain: CBTDomain, member: str, group: IPv4Address):
    return lambda: domain.join_host(member, group)


def _leave(domain: CBTDomain, member: str, group: IPv4Address):
    return lambda: domain.leave_host(member, group)


def _build_joins_race() -> ExploreWorld:
    network, domain, group = _stand_up([])
    actions = [
        (0.0, _join(domain, member, group)) for member in ("A", "G", "H")
    ]
    return ExploreWorld(network, domain, group, ["A", "G", "H"], actions)


def _build_quit_race() -> ExploreWorld:
    # H leaves at t+0; IGMP membership expiry takes ~4.02s, after which
    # R10 sends QUIT_REQUEST toward R9.  J joins through the same R10
    # at t+4.03 so its membership report lands while the QUIT handshake
    # is in flight — the §5.3 race the explorer then perturbs
    # (orderings, QUIT/JOIN drops).
    network, domain, group = _stand_up(["A", "B", "H"])
    actions = [
        (0.0, _leave(domain, "H", group)),
        (4.03, _join(domain, "J", group)),
    ]
    return ExploreWorld(network, domain, group, ["A", "B", "J"], actions)


def _build_lan_proxy() -> ExploreWorld:
    network, domain, group = _stand_up(["A"])
    actions = [
        (0.0, _join(domain, "B", group)),
        (0.0, _join(domain, "E", group)),
    ]
    return ExploreWorld(network, domain, group, ["A", "B", "E"], actions)


def _build_flap_join() -> ExploreWorld:
    network, domain, group = _stand_up(["A", "H"])
    actions = [(0.1, _join(domain, "E", group))]
    return ExploreWorld(network, domain, group, ["A", "H", "E"], actions)


def _build_migration_race() -> ExploreWorld:
    # H's leave puts a QUIT in flight just as the handover announces
    # (promotion of the on-tree secondary R9 to primary — the stale
    # parent-shedding path), and J's join lands in the window where the
    # old primary R4 retires.  The explorer perturbs delivery order and
    # loss of the racing JOIN/QUIT handshakes across all three phases.
    from repro.core.migration import MigrationConfig, MigrationCoordinator

    network, domain, group = _stand_up(["A", "B", "H"])
    coordinator = MigrationCoordinator(
        domain, group, config=MigrationConfig(stretch_threshold=1.0)
    )
    actions = [
        (0.0, _leave(domain, "H", group)),
        (4.05, lambda: coordinator.migrate(["R9", "R2"])),
        (6.0, _join(domain, "J", group)),
    ]
    return ExploreWorld(network, domain, group, ["A", "B", "J"], actions)


def _flap_join_faults(
    world: ExploreWorld,
) -> List[Tuple[str, Callable[[], None]]]:
    """One short fault on/near E's join path (R7 -> R4): flap the join
    link, flap the established-tree link, or crash the joining DR."""
    now = world.network.scheduler.now
    events = [
        LinkFlap(at=now + 0.3, link="L_R4_R7", duration=0.8),
        LinkFlap(at=now + 0.3, link="L_R3_R4", duration=0.8),
        NodeOutage(at=now + 0.3, node="R7", duration=0.8),
    ]

    def _apply(event) -> Callable[[], None]:
        def apply() -> None:
            # Tag the pending fault actions: they must show up in the
            # in-flight fingerprint, or the explorer would prune the
            # fault subtree as identical to the no-fault run before
            # the fault ever fires (its effect is delayed).
            for at_time, desc, action in event.actions(world.network):
                world.network.scheduler.call_at(
                    at_time, action, tag=("fault", desc, 0)
                )

        return apply

    return [
        (event.actions(world.network)[0][1], _apply(event)) for event in events
    ]


# -- HPIM-DM election scenario (the hard-state comparator's smoke
# -- validation: same explorer, protocol-specific oracles) -------------------


def _hpim_join(domain: HPIMDMDomain, member: str, group: IPv4Address):
    return lambda: domain.join_host(member, group)


def _hpim_send(network: Network, host_name: str, group: IPv4Address):
    def send() -> None:
        from repro.netsim.packet import IPDatagram, PROTO_UDP, UDPDatagram

        host = network.host(host_name)
        host.originate(
            IPDatagram(
                src=host.interface.address,
                dst=group,
                proto=PROTO_UDP,
                payload=UDPDatagram(sport=40000, dport=5000, payload=b"x" * 32),
                ttl=64,
            )
        )

    return send


def _build_hpimdm_elections() -> ExploreWorld:
    # B's first data packet (from the multi-router LAN S4, so R2/R5/R6
    # all see it) creates the (S, G) entries and kicks off the assert
    # elections the explorer then perturbs: G and H join concurrently,
    # so interest propagation races the elections themselves.  A is
    # pre-joined outside the window for a stable baseline branch.
    network = build_figure1(trace_enabled=False)
    domain = HPIMDMDomain(
        network,
        hello_interval=1.0,
        neighbour_hold=3.5,
        rtx_interval=0.5,
        igmp_config=FAST_IGMP,
    )
    domain.start()
    network.run(until=SETTLE_TIME)
    group = group_address(0)
    domain.join_host("A", group)
    network.run(until=network.scheduler.now + 2.0)
    actions = [
        (0.0, _hpim_join(domain, "G", group)),
        (0.0, _hpim_join(domain, "H", group)),
        (0.2, _hpim_send(network, "B", group)),
    ]
    return ExploreWorld(network, domain, group, ["A", "G", "H"], actions)


def _hpim_transition(world: ExploreWorld) -> List[str]:
    """Hard HPIM-DM invariants, valid even mid-election: a router never
    synchronises state with itself, and an unacked advertisement must
    have a live retransmit ticker driving it (the hard-state analogue
    of CBT's stale quit-retry class)."""
    findings: List[str] = []
    for name in sorted(world.domain.protocols):
        protocol = world.domain.protocols[name]
        own = {interface.address for interface in protocol.router.interfaces}
        for vif, table in sorted(protocol.neighbours.items()):
            for addr in sorted(own & set(table), key=str):
                findings.append(
                    f"{name}: lists itself ({addr}) as a neighbour on vif {vif}"
                )
        for entry in protocol.entries.values():
            for vif, table in sorted(entry.claims.items()):
                for addr in sorted(own & set(table), key=str):
                    findings.append(
                        f"{name}: stores its own assert claim ({addr}) "
                        f"g={entry.group}"
                    )
            for vif, table in sorted(entry.interests.items()):
                for addr in sorted(own & set(table), key=str):
                    findings.append(
                        f"{name}: stores its own interest ({addr}) "
                        f"g={entry.group}"
                    )
        if protocol._pending and protocol._rtx_ticker is None:
            findings.append(
                f"{name}: unacked advertisements with no retransmit ticker"
            )
    return findings


def _hpim_convergence(world: ExploreWorld) -> List[str]:
    """End-state oracle: elections converged (exactly one upstream
    winner per link), all advertisements acknowledged, and a fresh
    probe from the source delivered exactly once to every member —
    the same deliverability goal state the CBT sweep checks by
    walking child pointers, here measured in the data plane because
    HPIM-DM's tree *is* its per-link election outcome."""
    domain = world.domain
    network = world.network
    findings = [str(finding) for finding in domain.election_findings()]
    pending = domain.pending_total()
    if pending:
        findings.append(
            f"{pending} advertisements still unacknowledged after settle"
        )
    from repro.harness.scenarios import send_data

    uids = set(send_data(network, "B", world.group, count=2, spacing=0.05))
    for member in sorted(world.members):
        got = sum(
            1
            for datagram in network.host(member).delivered
            if datagram.uid in uids
        )
        if got != len(uids):
            findings.append(
                f"member {member} received {got}/{len(uids)} probe packets "
                f"(loss or duplicate delivery after election convergence)"
            )
    return findings


def _hpim_fingerprint(world: ExploreWorld) -> str:
    from repro.explore.fingerprint import hpim_domain_fingerprint

    return hpim_domain_fingerprint(world.domain)


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
            build=_build_joins_race,
            window=4.0,
            settle=9.0,
            gate_types=("JOIN_REQUEST", "JOIN_ACK"),
        ),
        ExploreScenario(
            name="quit-race",
            description=(
                "H leaves while J joins through the same routers "
                "(R10/R9); explores the §5.3 QUIT vs JOIN race and "
                "loss of QUIT_REQUEST / QUIT_ACK (the PR-2 stale "
                "quit-retry class)."
            ),
            build=_build_quit_race,
            window=5.5,
            settle=9.0,
            gate_types=(
                "JOIN_REQUEST",
                "JOIN_ACK",
                "QUIT_REQUEST",
                "QUIT_ACK",
            ),
        ),
        ExploreScenario(
            name="lan-proxy",
            description=(
                "B joins on the multi-router LAN S4 (R2/R5/R6 "
                "proxy-ack machinery) while E joins elsewhere; "
                "explores JOIN delivery order and loss on the shared "
                "LAN (the PR-2 proxy-ack class)."
            ),
            build=_build_lan_proxy,
            window=4.0,
            settle=9.0,
            gate_types=("JOIN_REQUEST", "JOIN_ACK"),
        ),
        ExploreScenario(
            name="flap-join",
            description=(
                "E joins while one short fault is placed as an "
                "explored choice: flap the join-path link, flap an "
                "established tree link, or crash the joining DR."
            ),
            build=_build_flap_join,
            window=6.0,
            settle=12.0,
            gate_types=("JOIN_REQUEST", "JOIN_ACK"),
            fault_candidates=_flap_join_faults,
            check_loops=False,
        ),
        ExploreScenario(
            name="migration-race",
            description=(
                "A make-before-break core handover (R4 -> R9) races a "
                "member's quit (in flight at announcement) and a fresh "
                "join (landing at retirement); explores delivery order "
                "and loss of the JOIN/QUIT handshakes spanning the "
                "announce, graft, and retire phases."
            ),
            build=_build_migration_race,
            window=7.0,
            settle=12.0,
            gate_types=(
                "JOIN_REQUEST",
                "JOIN_ACK",
                "QUIT_REQUEST",
                "QUIT_ACK",
            ),
            check_loops=False,
        ),
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
            build=_build_hpimdm_elections,
            window=4.0,
            settle=8.0,
            gate_types=("HpimAssert", "HpimInterest", "HpimAck"),
            check_loops=False,
            # Hellos and the IGMP chatter around the joins are not what
            # this scenario branches on: the budget goes to the
            # election handshakes.
            quiet_types=(
                "HpimHello",
                "MembershipQuery",
                "MembershipReport",
                "Leave",
            ),
            transition_oracle=_hpim_transition,
            convergence_oracle=_hpim_convergence,
            state_fingerprint=_hpim_fingerprint,
        ),
    )
}


def get_scenario(name: str) -> ExploreScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_options(scenario: ExploreScenario, **overrides):
    """Build :class:`~repro.explore.engine.ExploreOptions` seeded with
    the scenario's gate and quiet types; ``overrides`` win."""
    from repro.explore.engine import ExploreOptions

    if scenario.gate_types is not None:
        overrides.setdefault("gate_types", scenario.gate_types)
    if scenario.quiet_types is not None:
        overrides.setdefault("quiet_types", scenario.quiet_types)
    return ExploreOptions(**overrides)
