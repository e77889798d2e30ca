"""Rejoin loop detection tests on the spec's Figure-5 topology (§6.3)."""

import pytest

from repro import CBTDomain, build_figure5_loop, group_address
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data
from tests.conftest import join_members


@pytest.fixture
def loop_scenario():
    """Figure-5 with the chain tree built and shortcuts restored —
    the instant before R2-R3 fails."""
    fig = build_figure5_loop()
    net = fig.network
    fig.isolate_chain()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R1"])
    domain.start()
    net.run(until=3.0)
    join_members(net, domain, group, ["HM3", "HM4", "HM5"], spacing=0.1)
    fig.restore_shortcuts()
    net.run(until=net.scheduler.now + 1.0)
    return fig, domain, group


def run_quiet(network, seconds):
    network.run(until=network.scheduler.now + seconds)


class TestSetup:
    def test_chain_tree_matches_walkthrough(self, loop_scenario):
        fig, domain, group = loop_scenario
        assert set(domain.tree_edges(group)) == {
            ("R2", "R1"),
            ("R3", "R2"),
            ("R4", "R3"),
            ("R5", "R4"),
        }

    def test_post_failure_routing_is_the_walkthrough_loop(self, loop_scenario):
        """R3's next hop to core R1 must be R6, and R6's must be R5."""
        fig, domain, group = loop_scenario
        net = fig.network
        fig.fail_parent_link()
        core = net.router("R1").primary_address
        r3_next = net.router("R3").next_hop_toward(core)
        assert r3_next in {i.address for i in net.router("R6").interfaces}
        r6_next = net.router("R6").next_hop_toward(core)
        assert r6_next in {i.address for i in net.router("R5").interfaces}


class TestLoopDetection:
    def test_nactive_rejoin_detects_the_loop(self, loop_scenario):
        fig, domain, group = loop_scenario
        fig.fail_parent_link()
        run_quiet(fig.network, 120.0)
        p3 = domain.protocol("R3")
        assert p3.events_of("loop_detected")

    def test_converting_router_sends_nactive_up_its_parent(self, loop_scenario):
        """§6.3: R5, the first on-tree router, converts the
        REJOIN-ACTIVE to a NACTIVE rejoin."""
        fig, domain, group = loop_scenario
        fig.fail_parent_link()
        run_quiet(fig.network, 30.0)
        # R5 received R3's rejoin (forwarded by R6) and forwarded a
        # NACTIVE to its parent R4, which forwarded it to R3.
        p4_received = domain.telemetry.registry.value("cbt.router.R4.rx.join_request")
        assert p4_received >= 1

    def test_loop_broken_by_quit(self, loop_scenario):
        fig, domain, group = loop_scenario
        fig.fail_parent_link()
        run_quiet(fig.network, 30.0)
        p3 = domain.protocol("R3")
        assert p3.stats.sent.get("QUIT_REQUEST", 0) >= 1

    def test_final_tree_is_loop_free_and_consistent(self, loop_scenario):
        fig, domain, group = loop_scenario
        fig.fail_parent_link()
        run_quiet(fig.network, 200.0)
        domain.assert_tree_consistent(group)

    def test_all_members_served_after_recovery(self, loop_scenario):
        fig, domain, group = loop_scenario
        fig.fail_parent_link()
        run_quiet(fig.network, 200.0)
        for name in ("R3", "R4", "R5"):
            assert domain.protocol(name).is_on_tree(group), name
        uid = send_data(fig.network, "HM5", group, count=1)[0]
        for host in ("HM3", "HM4"):
            copies = sum(
                1 for d in fig.network.host(host).delivered if d.uid == uid
            )
            assert copies == 1, f"{host} got {copies}"

    def test_loop_break_budget_is_bounded(self, loop_scenario):
        """Repeated loop detections must stop at MAX_LOOP_BREAKS and
        fall back to flush-and-rehome, not spin forever."""
        fig, domain, group = loop_scenario
        fig.fail_parent_link()
        run_quiet(fig.network, 400.0)
        p3 = domain.protocol("R3")
        max_breaks = type(p3).MAX_LOOP_BREAKS
        assert len(p3.events_of("loop_detected")) <= max_breaks + 1
