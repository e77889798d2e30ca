"""Tree-joining tests against the spec's §2.5/§2.6 walk-throughs."""

from unittest import mock

from repro import CBTDomain, group_address
from repro.core.router import CBTProtocol
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS


class TestFigure1JoinWalkthrough:
    """§2.5: host A on S1 joins; the branch R1-R3-R4 forms."""

    def test_a_join_builds_r1_r3_r4_branch(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        domain.join_host("A", group)
        figure1_network.run(until=6.0)
        assert domain.on_tree_routers(group) == ["R1", "R3", "R4"]
        assert set(domain.tree_edges(group)) == {("R1", "R3"), ("R3", "R4")}

    def test_join_latency_recorded(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        domain.join_host("A", group)
        figure1_network.run(until=6.0)
        joined = domain.protocol("R1").events_of("joined")
        assert len(joined) == 1
        latency = float(joined[0].detail)
        assert 0 < latency < 1.0

    def test_r4_is_root_with_no_parent(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        domain.join_host("A", group)
        figure1_network.run(until=6.0)
        assert domain.protocol("R4").tree_parent(group) is None
        assert domain.protocol("R4").tree_children(group)

    def test_second_join_terminates_at_on_tree_router(
        self, figure1_domain, figure1_network
    ):
        """§2.5: B's join is terminated by R3 (already on-tree), not R4."""
        domain, group = figure1_domain
        domain.join_host("A", group)
        figure1_network.run(until=6.0)
        r4_acks_before = domain.protocol("R4").stats.sent.get("JOIN_ACK", 0)
        domain.join_host("B", group)
        figure1_network.run(until=9.0)
        # R4 terminated nothing new: R3 acked B's join.
        assert domain.protocol("R4").stats.sent.get("JOIN_ACK", 0) == r4_acks_before
        assert ("R2", "R3") in domain.tree_edges(group)

    def test_tree_is_consistent(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        domain.assert_tree_consistent(group)

    def test_full_membership_tree_matches_spec(self, figure1_full_tree):
        """§5 data walk-through implies exactly this parent/child set."""
        domain, group = figure1_full_tree
        assert set(domain.tree_edges(group)) == {
            ("R1", "R3"),
            ("R2", "R3"),
            ("R3", "R4"),
            ("R7", "R4"),
            ("R8", "R4"),
            ("R9", "R8"),
            ("R10", "R9"),
            ("R12", "R8"),
        }

    def test_off_tree_routers_hold_no_state(self, figure1_full_tree):
        """R5, R6, R11 never join: CBT keeps state only on the tree."""
        domain, group = figure1_full_tree
        for name in ("R5", "R6", "R11"):
            assert not domain.protocol(name).is_on_tree(group)
            assert len(domain.protocol(name).fib) == 0


class TestProxyAck:
    """§2.6: B's join takes an extra LAN hop R6 -> R2; R2 proxy-acks."""

    def joined_b(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        domain.join_host("A", group)
        figure1_network.run(until=6.0)
        domain.join_host("B", group)
        figure1_network.run(until=9.0)
        return domain, group

    def test_r6_receives_proxy_ack(self, figure1_domain, figure1_network):
        domain, group = self.joined_b(figure1_domain, figure1_network)
        assert domain.protocol("R6").events_of("proxied")

    def test_r6_keeps_no_fib_entry(self, figure1_domain, figure1_network):
        domain, group = self.joined_b(figure1_domain, figure1_network)
        assert not domain.protocol("R6").is_on_tree(group)

    def test_r2_becomes_gdr_with_entry(self, figure1_domain, figure1_network):
        domain, group = self.joined_b(figure1_domain, figure1_network)
        p2 = domain.protocol("R2")
        assert p2.is_on_tree(group)
        assert p2.events_of("gdr")
        assert p2.tree_parent(group) is not None

    def test_r2_not_listed_as_child_of_nobody(self, figure1_domain, figure1_network):
        domain, group = self.joined_b(figure1_domain, figure1_network)
        domain.assert_tree_consistent(group)

    def test_proxy_ack_disabled_keeps_d_dr_on_tree(self, figure1_network):
        """Ablation: without §2.6, the D-DR R6 keeps a redundant FIB
        entry and the branch roots one LAN hop too early.  The proxy
        rule is switched off through its last, pure conjunct."""
        domain = CBTDomain(figure1_network, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        group = group_address(0)
        domain.create_group(group, cores=["R4", "R9"])
        with mock.patch.object(CBTProtocol, "_has_other_cbt_router", return_value=False):
            domain.start()
            figure1_network.run(until=3.0)
            domain.join_host("A", group)
            figure1_network.run(until=6.0)
            domain.join_host("B", group)
            figure1_network.run(until=9.0)
        assert domain.protocol("R6").is_on_tree(group)
        assert ("R6", "R2") in domain.tree_edges(group)


class TestPendingJoinCaching:
    """§2.5: a pending router must cache, not ack, concurrent joins."""

    def test_simultaneous_joins_converge(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        # All joins at the same instant: R3 will be pending when
        # others' joins arrive.
        for member in ("A", "C", "B", "H"):
            domain.join_host(member, group)
        figure1_network.run(until=8.0)
        domain.assert_tree_consistent(group)
        for name in ("R1", "R2", "R3", "R4", "R8", "R9", "R10"):
            assert domain.protocol(name).is_on_tree(group), name

    def test_no_duplicate_children(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        for member in ("A", "C", "B"):
            domain.join_host(member, group)
        figure1_network.run(until=8.0)
        entry = domain.protocol("R3").fib.get(group)
        assert entry is not None
        assert len(entry.children) == len(set(entry.children))


class TestSecondaryCore:
    def test_join_targeted_at_secondary_builds_core_tree(
        self, figure1_domain, figure1_network
    ):
        """§2.5: a join reaching non-primary core R9 is acked, then R9
        sends a REJOIN-ACTIVE to the primary core R4."""
        domain, group = figure1_domain
        # H's core report targets the secondary core (index 1 = R9).
        cores = domain.coordinator.cores_for(group)
        domain.agent("H").join(group, cores=cores, target_core=1)
        figure1_network.run(until=8.0)
        p9 = domain.protocol("R9")
        assert p9.is_on_tree(group)
        # R9 must have attached itself toward the primary core R4.
        assert p9.tree_parent(group) is not None
        assert domain.protocol("R4").is_on_tree(group)
        domain.assert_tree_consistent(group)
        assert any(
            e.detail == "secondary" for e in p9.events_of("core_activated")
        )

    def test_primary_core_member_lan_needs_no_join(
        self, figure1_domain, figure1_network
    ):
        """A member on one of R4's own subnets: R4 roots the tree with
        zero control traffic."""
        domain, group = figure1_domain
        joins_before = domain.control_messages_sent()
        domain.join_host("D", group)  # D is on S5, directly behind R4
        figure1_network.run(until=6.0)
        p4 = domain.protocol("R4")
        assert p4.is_on_tree(group)
        assert p4.tree_parent(group) is None
        assert domain.protocol("R4").stats.sent.get("JOIN_REQUEST", 0) == 0


class TestJoinRetransmission:
    def test_lost_ack_recovered_by_retransmit(self, figure1_network):
        """Drop the first join; the PEND-JOIN-INTERVAL retransmit must
        recover the join without outside help."""
        domain = CBTDomain(
            figure1_network, timers=FAST_TIMERS, igmp_config=FAST_IGMP
        )
        group = group_address(0)
        domain.create_group(group, cores=["R4", "R9"])
        domain.start()
        figure1_network.run(until=3.0)
        # Drop exactly one UDP control packet on the R3-R4 link.
        link = figure1_network.link("L_R3_R4")
        dropped = []

        def drop_once(datagram):
            from repro.netsim.packet import PROTO_UDP

            if not dropped and datagram.proto == PROTO_UDP:
                dropped.append(datagram)
                return True
            return False

        link.loss = drop_once
        domain.join_host("A", group)
        figure1_network.run(until=15.0)
        assert dropped, "the loss hook never fired"
        assert domain.protocol("R1").is_on_tree(group)
        domain.assert_tree_consistent(group)
