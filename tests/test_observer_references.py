"""The O(tree) observers against the full sweeps they replaced.

``check_invariants``, ``CBTDomain.tree_edges``, ``audit_domain``, the
explorer's two oracles and ``link_conservation`` read one domain-owned
address index and visit only routers that hold state
(docs/PERFORMANCE.md, "Decision record: observers read what exists");
``check_conservation`` and ``QualityProbe.sample`` read the per-entity
statistics as attributes where they were registry names and patterns
(docs/PERFORMANCE.md, "Decision record: per-entity statistics are
attributes").
Findings are the contract: on every state visited here the lists they
return equal — texts and order — what ``tests/reference_sweeps.py``
returns, which is the code they replaced.  ``audit_domain`` and the
explorer's two oracles have no reference there; on the hand-corrupted
trees their findings are pinned as text (``PINNED_FINDINGS``).
``CBTDomain.assert_tree_consistent`` is ``check_invariants`` for one
group, so the comparison at every tick covers it.

States visited: every conservation snapshot and probe sample of a
quick flash cell, every auditor tick of every chaos scenario on three
topologies (crashed routers, flapped links and half-finished repairs
are where skipping a router could hide a finding), the two open
findings' schedules, hand-corrupted trees with the offender live and
crashed, and a live domain that gains interfaces.  A chaos plan's tree
links, read off the FIB, equal the per-edge link scan right after
every stand-up of the three topology rows at seeds 0-63.
"""

import pytest

from repro.chaos import SCENARIOS
from repro.chaos.scenarios import tree_links
from repro.harness.campaign import run_scenario
from repro.core import audit
from repro.core.audit import (
    audit_domain,
    check_invariants,
    convergence_findings,
    transition_findings,
)
from repro.core.constants import JoinSubcode
from repro.core.migration import network_graph
from repro.core.state import PendingJoin, QuitAttempt
from repro.harness import campaign
from repro.netsim.address import IPv4Address
from repro.telemetry.conservation import check_conservation, link_conservation
from repro.topology.generators import waxman_network
from repro.workloads import cell as workload_cell
from repro.workloads.cell import run_flash_crowd_cell
from repro.workloads.probe import QualityProbe
from tests import reference_sweeps
from tests.reference_sweeps import FromScratchIndex


def _members(domain, group):
    return sorted(
        name for name, agent in domain.host_agents.items() if agent.is_member(group)
    )


def assert_matches_reference(domain, now=None):
    """Every changed reader against its reference on ``domain`` as it
    stands; returns the invariant findings."""
    findings = check_invariants(domain, now=now)
    assert findings == reference_sweeps.check_invariants(domain, now=now)
    from_scratch = reference_sweeps.from_scratch_index(domain)
    assert {a: domain.router_of(a) for a in from_scratch} == from_scratch
    reference = FromScratchIndex(domain)
    assert audit_domain(domain, now=now) == audit_domain(reference, now=now)
    for check_loops in (True, False):
        assert transition_findings(domain, check_loops) == transition_findings(
            reference, check_loops
        )
    for group in domain.coordinator._groups:
        assert domain.tree_edges(group) == reference_sweeps.tree_edges(domain, group)
        members = _members(domain, group)
        assert convergence_findings(domain, group, members) == (
            convergence_findings(reference, group, members)
        )
    registry = domain.telemetry.registry
    assert link_conservation(registry) == reference_sweeps.link_conservation(registry)
    network = domain.network
    assert check_conservation(network, domain) == (
        reference_sweeps.check_conservation(network, domain)
    )
    for exclude_hello in (True, False):
        assert domain.control_messages_sent(exclude_hello) == (
            reference_sweeps.control_messages_sent(domain, exclude_hello)
        )
    return findings


@pytest.fixture
def ticks(monkeypatch):
    """Shadow every ``check_invariants`` the campaign makes — auditor
    ticks and the quiescence test — with the reference comparison.
    Yields one ``(crashed routers holding state, findings)`` per call.
    ``convergence_findings`` calls ``check_invariants`` from its own
    module, so the original stands there while the shadow runs."""
    seen = []
    original = audit.check_invariants

    def shadowed(domain, now=None):
        audit.check_invariants = original
        try:
            findings = assert_matches_reference(domain, now=now)
        finally:
            audit.check_invariants = shadowed
        crashed = sum(
            1
            for protocol in domain.protocols.values()
            if len(protocol.fib) and reference_sweeps._crashed(protocol)
        )
        seen.append((crashed, findings))
        return findings

    monkeypatch.setattr(audit, "check_invariants", shadowed)
    monkeypatch.setattr(campaign, "check_invariants", shadowed)
    return seen


class TestEveryFlashCellSnapshot:
    """A quick flash cell on the 1,000-router bulk topology: each
    conservation snapshot and each probe sample equals what the
    name-and-pattern reads give (``reference_sweeps.check_conservation``
    / ``probe_sample``)."""

    def test_quick_flash_cell(self, monkeypatch):
        looked = {"conservation": 0, "sample": 0}

        def conservation(network, domain=None):
            found = check_conservation(network, domain)
            assert found == reference_sweeps.check_conservation(network, domain)
            looked["conservation"] += 1
            return found

        sample = QualityProbe.sample

        def sampled(probe):
            taken = sample(probe)
            assert taken == reference_sweeps.probe_sample(probe)
            looked["sample"] += 1
            return taken

        monkeypatch.setattr(workload_cell, "check_conservation", conservation)
        monkeypatch.setattr(QualityProbe, "sample", sampled)
        result = run_flash_crowd_cell("bulk1000", seed=1, quick=True)
        assert result.clean
        assert looked["conservation"] == 2 and looked["sample"] >= 5
        assert result.sample_fingerprints and result.sample_fingerprints[-1]


class TestEveryAuditorTick:
    @pytest.mark.parametrize("topology", ["figure1", "grid9", "waxman16"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_chaos_cell(self, ticks, scenario, topology):
        result = run_scenario(scenario, topology=topology, seed=0)
        assert len(ticks) >= result.audit_checks > 0
        if scenario in ("router_crash", "core_crash"):
            # The ticks that matter most: state frozen in a dead router.
            assert any(crashed for crashed, _ in ticks)

    def test_open_finding_parent_loop(self, ticks):
        """core_crash / waxman16 seed 17 (docs/ROBUSTNESS.md, "Open
        findings"): what it reports must not change."""
        result = run_scenario("core_crash", topology="waxman16", seed=17)
        assert result.violations == [
            "[error] N1 group=239.0.0.1: parent pointers form a loop"
        ]
        assert any(findings for _, findings in ticks)

    def test_open_finding_never_quiescent(self, ticks):
        result = run_scenario("core_crash", topology="waxman16", seed=29)
        assert not result.recovered and not result.violations
        assert any(findings for _, findings in ticks)


class TestTreeLinksFromTheFIB:
    """A chaos plan reads its tree links off each on-tree router's
    FIB-entry parent interface (``chaos.scenarios.tree_links``); the
    reference looks a link up per tree edge over every link.  Right
    after stand-up, on every topology row at seeds 0-63, both give the
    same non-empty list."""

    @pytest.mark.parametrize("topology", sorted(campaign.TOPOLOGIES))
    def test_every_seed_right_after_stand_up(self, topology):
        differ = []
        for seed in range(64):
            build = campaign.TOPOLOGIES[topology].build
            with campaign.cell_run("cbt", build, seed) as run:
                links = tree_links(run)
                reference = reference_sweeps.tree_links(run.network, run.domain, run.group)
                if not links or links != reference:
                    differ.append((seed, links, reference))
        assert differ == []


def _graph_rows():
    for topology in sorted(campaign.TOPOLOGIES):
        yield pytest.param(lambda t=topology: campaign.TOPOLOGIES[t].build(0)[0], id=topology)
    yield pytest.param(
        lambda: waxman_network(1000, alpha=0.02, seed=17), id="waxman1000"
    )


class TestProbeGraphFromLinkState:
    """``migration.network_graph`` reads link-state routing's one view
    of the links and their routers; the reference scans every link's
    interfaces.  Both give the same nodes and edges — order, cost and
    delay — on every topology row and the n = 1,000 flash-crowd mesh,
    and again with every link down (the view keeps a down link's
    routers)."""

    @pytest.mark.parametrize("build", _graph_rows())
    def test_same_edges_as_the_interface_scan(self, build):
        network = build()
        try:
            for _ in range(2):
                graph = network_graph(network)
                reference = reference_sweeps.network_graph(network)
                assert graph.nodes == reference.nodes
                assert [tuple(e) for e in graph.edges] == [tuple(e) for e in reference.edges]
                for name in network.links:
                    network.fail_link(name, reconverge=False)
        finally:
            network.close()


def _neighbour_pair(network, domain, group, on_tree):
    """A router holding no state for ``group`` and a neighbour of it
    (on-tree or not, as asked), with the addresses they share a link on."""
    for name, protocol in sorted(domain.protocols.items()):
        if len(protocol.fib):
            continue
        for interface in protocol.router.interfaces:
            for peer in interface.link.interfaces:
                other = peer.node.name
                if other == name or other not in domain.protocols:
                    continue
                if domain.protocol(other).is_on_tree(group) == on_tree:
                    return name, interface, other, peer
    raise AssertionError("no such pair in this topology")


def _self_parent(network, domain, group):
    protocol = domain.protocol("R8")
    own = protocol.router.interfaces[0]
    protocol.fib.get(group).set_parent(own.address, own.vif)
    return "R8"


def _parent_forgets_child(network, domain, group):
    entry = domain.protocol("R3").fib.get(group)
    for child in list(entry.children):
        if domain.router_of(child) == "R1":
            entry.remove_child(child)
    return "R1"


def _loop_with_stateless_neighbour(network, domain, group):
    name, mine, other, theirs = _neighbour_pair(network, domain, group, on_tree=False)
    domain.protocol(name).fib.get_or_create(group).set_parent(theirs.address, mine.vif)
    domain.protocol(other).fib.get_or_create(group).set_parent(mine.address, theirs.vif)
    return name


def _parent_is_a_stateless_router(network, domain, group):
    name, mine, other, theirs = _neighbour_pair(network, domain, group, on_tree=True)
    domain.protocol(other).fib.get(group).set_parent(mine.address, theirs.vif)
    return name


def _parent_is_not_a_router(network, domain, group):
    host = network.host("A").interface.address
    domain.protocol("R12").fib.get(group).set_parent(host, 0)
    return "R12"


def _stale_pending_join(network, domain, group):
    name, *_ = _neighbour_pair(network, domain, group, on_tree=True)
    domain.protocol(name).pending[group] = PendingJoin(
        group=group,
        origin=IPv4Address("10.0.0.1"),
        subcode=JoinSubcode.ACTIVE_JOIN,
        target_core=IPv4Address("10.0.3.1"),
        cores=(IPv4Address("10.0.3.1"),),
        upstream_address=IPv4Address("10.0.13.3"),
        upstream_vif=0,
        created_at=-1000.0,
    )
    return name


def _quit_with_no_timer(network, domain, group):
    name, *_ = _neighbour_pair(network, domain, group, on_tree=True)
    domain.protocol(name).quits[group] = QuitAttempt(
        group=group, parent=IPv4Address("10.0.13.3"), retries_left=1
    )
    return name


def _child_of_a_crashed_parent(network, domain, group):
    return "R3"  # R1 and R2 point at it; crashing it is the corruption


CORRUPTIONS = [
    _self_parent,
    _parent_forgets_child,
    _loop_with_stateless_neighbour,
    _parent_is_a_stateless_router,
    _parent_is_not_a_router,
    _stale_pending_join,
    _quit_with_no_timer,
    _child_of_a_crashed_parent,
]


def oracle_findings(domain, group):
    """``audit_domain`` and the explorer's oracles on ``domain``, spelt
    as in ``PINNED_FINDINGS``: the group left out, empty results too."""
    results = {
        "audit_domain": audit_domain(domain),
        "transition_true": transition_findings(domain, True),
        "transition_false": transition_findings(domain, False),
        "convergence": convergence_findings(domain, group, _members(domain, group)),
    }
    return {
        name: [str(finding).replace(f" group={group}", "") for finding in findings]
        for name, findings in results.items()
        if findings
    }


#: What the three oracles with no reference sweep report on each
#: hand-corrupted tree, offender live and then crashed.  A crashed
#: router that a parent walk reaches is reported as a loop
#: (``child_of_a_crashed_parent``, ``parent_is_a_stateless_router``),
#: as the reference's loop walker reports it.  ``audit_domain`` is
#: ``check_invariants`` followed by its smells (stale children, member
#: LAN service), so a crashed offender drops out of its rows too.
PINNED_FINDINGS = {
    ("self_parent", "live"): {
        "audit_domain": [
            "[error] R8: lists itself as parent",
            "[error] R8: parent R8 does not list this router as a child",
            "[error] R8: parent pointers form a loop",
        ],
        "transition_true": [
            "[error] R8: lists itself as parent",
            "[error] R8: parent pointers form a loop",
        ],
        "transition_false": [
            "[error] R8: lists itself as parent",
        ],
        "convergence": [
            "[error] R8: lists itself as parent",
            "[error] R8: parent R8 does not list this router as a child",
            "[error] R8: parent pointers form a loop",
        ],
    },
    ("self_parent", "crashed"): {
        "audit_domain": [
            "[error] R8: parent pointers form a loop",
        ],
        "transition_true": [
            "[error] R8: parent pointers form a loop",
        ],
        "convergence": [
            "[error] R8: parent pointers form a loop",
            "[error] G: member LAN 10.0.7.0/24 has no attached on-tree router",
            "[error] I: member LAN 10.0.8.0/24 has no attached on-tree router",
            "[error] K: data can never arrive: no on-tree router on member LAN 10.0.12.0/24 "
            "is reachable from a core over child links",
        ],
    },
    ("parent_forgets_child", "live"): {
        "audit_domain": [
            "[error] R1: parent R3 does not list this router as a child",
        ],
        "convergence": [
            "[error] R1: parent R3 does not list this router as a child",
            "[error] A: data can never arrive: no on-tree router on member LAN 10.0.0.0/24 is "
            "reachable from a core over child links",
            "[error] C: data can never arrive: no on-tree router on member LAN 10.0.1.0/24 is "
            "reachable from a core over child links",
        ],
    },
    ("parent_forgets_child", "crashed"): {
        "convergence": [
            "[error] A: member LAN 10.0.0.0/24 has no attached on-tree router",
            "[error] C: member LAN 10.0.1.0/24 has no attached on-tree router",
        ],
    },
    ("loop_with_stateless_neighbour", "live"): {
        "audit_domain": [
            "[error] R5: parent R11 does not list this router as a child",
            "[error] R11: parent R5 does not list this router as a child",
            "[error] R5: parent pointers form a loop",
            "[warning] R2,R5: member LAN 10.0.2.0/24 served by multiple on-tree routers "
            "(duplicate delivery risk)",
        ],
        "transition_true": [
            "[error] R5: parent pointers form a loop",
        ],
        "convergence": [
            "[error] R5: parent R11 does not list this router as a child",
            "[error] R11: parent R5 does not list this router as a child",
            "[error] R5: parent pointers form a loop",
        ],
    },
    ("loop_with_stateless_neighbour", "crashed"): {
        "audit_domain": [
            "[error] R11: parent pointers form a loop",
            "[warning] R2,R5: member LAN 10.0.2.0/24 served by multiple on-tree routers "
            "(duplicate delivery risk)",
        ],
        "transition_true": [
            "[error] R11: parent pointers form a loop",
        ],
        "convergence": [
            "[error] R11: parent pointers form a loop",
        ],
    },
    ("parent_is_a_stateless_router", "live"): {
        "audit_domain": [
            "[error] R7: parent R11 does not list this router as a child",
        ],
        "convergence": [
            "[error] R7: parent R11 does not list this router as a child",
            "[error] R7: parent chain ends at non-core R11",
        ],
    },
    ("parent_is_a_stateless_router", "crashed"): {
        "audit_domain": [
            "[error] R11: parent pointers form a loop",
        ],
        "transition_true": [
            "[error] R11: parent pointers form a loop",
        ],
        "convergence": [
            "[error] R11: parent pointers form a loop",
        ],
    },
    ("parent_is_not_a_router", "live"): {
        "audit_domain": [
            "[error] R12: parent 10.0.0.2 is not a known CBT router",
        ],
        "convergence": [
            "[error] R12: parent 10.0.0.2 is not a known CBT router",
        ],
    },
    ("parent_is_not_a_router", "crashed"): {
        "convergence": [
            "[error] K: member LAN 10.0.12.0/24 has no attached on-tree router",
        ],
    },
    ("stale_pending_join", "live"): {
        "audit_domain": [
            "[error] R11: pending join is 1005.6s old (bound 11.0s)",
            "[error] R11: pending join has no live expiry timer (stuck transient state)",
        ],
        "transition_true": [
            "[error] R11: pending join has no live expiry timer (stuck transient state)",
        ],
        "transition_false": [
            "[error] R11: pending join has no live expiry timer (stuck transient state)",
        ],
        "convergence": [
            "[error] R11: pending join is 1005.6s old (bound 11.0s)",
            "[error] R11: pending join has no live expiry timer (stuck transient state)",
        ],
    },
    ("stale_pending_join", "crashed"): {},
    ("quit_with_no_timer", "live"): {
        "audit_domain": [
            "[error] R11: quit in progress with no live retry timer",
        ],
        "transition_true": [
            "[error] R11: quit in progress with no live retry timer",
        ],
        "transition_false": [
            "[error] R11: quit in progress with no live retry timer",
        ],
        "convergence": [
            "[error] R11: quit in progress with no live retry timer",
        ],
    },
    ("quit_with_no_timer", "crashed"): {},
    ("child_of_a_crashed_parent", "live"): {},
    ("child_of_a_crashed_parent", "crashed"): {
        "audit_domain": [
            "[error] R3: parent pointers form a loop",
        ],
        "transition_true": [
            "[error] R3: parent pointers form a loop",
        ],
        "convergence": [
            "[error] R3: parent pointers form a loop",
            "[error] A: data can never arrive: no on-tree router on member LAN 10.0.0.0/24 is "
            "reachable from a core over child links",
            "[error] B: data can never arrive: no on-tree router on member LAN 10.0.2.0/24 is "
            "reachable from a core over child links",
            "[error] C: data can never arrive: no on-tree router on member LAN 10.0.1.0/24 is "
            "reachable from a core over child links",
        ],
    },
}


class TestHandCorruptedDomains:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__[1:])
    def test_offender_live_then_crashed(
        self, figure1_full_tree, figure1_network, corrupt
    ):
        domain, group = figure1_full_tree
        assert assert_matches_reference(domain) == []
        offender = corrupt(figure1_network, domain, group)
        name = corrupt.__name__[1:]
        live = assert_matches_reference(domain)
        assert oracle_findings(domain, group) == PINNED_FINDINGS[name, "live"]
        if corrupt is not _child_of_a_crashed_parent:
            assert live, "the corruption is a finding while its router is up"
        figure1_network.fail_router(offender, reconverge=False)
        crashed = assert_matches_reference(domain)
        assert oracle_findings(domain, group) == PINNED_FINDINGS[name, "crashed"]
        assert crashed != live
        figure1_network.restore_router(offender, reconverge=False)
        assert assert_matches_reference(domain) == live

    def test_every_router_crashed(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        for name in figure1_network.routers:
            figure1_network.fail_router(name, reconverge=False)
        assert assert_matches_reference(domain) == []


class TestIndexSeesNewInterfaces:
    """``Network.attach`` is the only caller of ``add_interface`` in
    ``src/``; an interface it adds to a router of a live domain must
    be in the index the next time anything asks."""

    def test_p2p_and_lan(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        network = figure1_network
        assert_matches_reference(domain)  # the index is built and warm
        before = dict(reference_sweeps.from_scratch_index(domain))

        r5, r11 = network.router("R5"), network.router("R11")
        link = network.add_p2p("late-p2p", r5, r11)
        lan = next(iter(network.all_subnets()))
        outsider = next(
            router for router in network.all_routers()
            if router.interface_on(lan.network) is None
        )
        joined = network.attach(outsider, lan)

        for interface in link.interfaces:
            assert interface.address not in before
            assert domain.router_of(interface.address) == interface.node.name
        assert domain.router_of(joined.address) == outsider.name
        assert len(reference_sweeps.from_scratch_index(domain)) == len(before) + 3
        assert_matches_reference(domain)

        # A tree edge over the late link resolves to a name, not to the
        # ``str(address)`` fallback of an unknown parent.
        mine, theirs = link.interfaces
        domain.protocol("R5").fib.get_or_create(group).set_parent(
            theirs.address, mine.vif
        )
        assert ("R5", "R11") in domain.tree_edges(group)
        assert_matches_reference(domain)

    def test_an_address_nobody_owns_is_none_every_time(self, figure1_domain):
        domain, _ = figure1_domain
        stranger = IPv4Address("203.0.113.7")
        assert domain.router_of(stranger) is None
        assert domain.router_of(stranger) is None


def _first_link(network):
    return network.links[sorted(network.links)[0]]


def _bump(attr):
    def plant(network, domain):
        link = _first_link(network)
        setattr(link, attr, getattr(link, attr) + 1)
        return f"link {link.name}:"

    plant.__name__ = f"bumped_{attr}"
    return plant


def _drop_counter(reason):
    def plant(network, domain):
        link = _first_link(network)
        network.telemetry.registry.counter(
            f"netsim.link.{link.name}.drop.{reason}"
        ).value += 10_000
        return f"link {link.name}:"

    plant.__name__ = f"planted_drop_{reason}"
    return plant


def _tx_behind_control_stats(network, domain):
    network.telemetry.registry.counter("cbt.router.R4.tx.join_request").inc()
    return "JOIN_REQUEST: protocol tx"


PLANTS = [
    _bump("attempt_count"),
    _bump("rx_count"),
    *(_drop_counter(reason) for reason in ("link_down", "gate", "loss", "no_host", "late")),
    _tx_behind_control_stats,
]


class TestConservationStillFinds:
    """Reading fewer instruments must not mean seeing fewer faults."""

    @pytest.mark.parametrize("plant", PLANTS, ids=lambda f: f.__name__)
    def test_planted_violation(self, figure1_full_tree, figure1_network, plant):
        domain, _ = figure1_full_tree
        assert check_conservation(figure1_network, domain) == []
        expected = plant(figure1_network, domain)
        violations = check_conservation(figure1_network, domain)
        assert any(v.startswith(expected) for v in violations), violations
        registry = figure1_network.telemetry.registry
        assert link_conservation(registry) == reference_sweeps.link_conservation(registry)

    def test_planted_tx_is_what_the_agreement_test_guards(
        self, figure1_full_tree, figure1_network
    ):
        """``control_messages_sent`` no longer reads the registry, so a
        count added there behind ``ControlStats``' back shows as the
        two sides disagreeing (and as a conservation violation above)."""
        domain, _ = figure1_full_tree
        _tx_behind_control_stats(figure1_network, domain)
        assert reference_sweeps.control_messages_sent(domain) == (
            domain.control_messages_sent() + 1
        )
