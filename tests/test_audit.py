"""Tests for the domain audit (protocol fsck)."""


from repro.core.audit import audit_domain, errors, warnings


class TestHealthyDomains:
    def test_fresh_domain_is_clean(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        assert audit_domain(domain) == []

    def test_full_tree_is_clean(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        findings = audit_domain(domain)
        assert errors(findings) == []
        assert warnings(findings) == []

    def test_after_churn_is_clean(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        domain.leave_host("B", group)
        domain.leave_host("H", group)
        figure1_network.run(until=figure1_network.scheduler.now + 40.0)
        assert errors(audit_domain(domain)) == []


class TestDetections:
    def test_orphaned_child_detected(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        # Corrupt: R3 forgets child R1 while R1 keeps its parent.
        entry3 = domain.protocol("R3").fib.get(group)
        r1_addrs = {i.address for i in figure1_network.router("R1").interfaces}
        for child in list(entry3.children):
            if child in r1_addrs:
                entry3.remove_child(child)
        findings = audit_domain(domain)
        assert any(
            f.severity == "error" and f.router == "R1" for f in findings
        )

    def test_stale_child_detected(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        # Corrupt: R10 loses its entry while R9 still lists it.
        domain.protocol("R10").fib.remove(group)
        findings = audit_domain(domain)
        assert any(
            "stale child" in f.message for f in warnings(findings)
        )

    def test_parent_loop_detected(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        # Corrupt: root R4 points back to R8 (its own child).
        p4 = domain.protocol("R4")
        entry4 = p4.fib.get(group)
        r8_addr = next(iter(entry4.children))
        entry4.set_parent(r8_addr, entry4.children[r8_addr])
        findings = audit_domain(domain)
        assert any("loop" in f.message for f in errors(findings))

    def test_stale_pending_join_detected(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        from repro.core.state import PendingJoin
        from repro.core.constants import JoinSubcode
        from repro.netsim.address import IPv4Address

        p1 = domain.protocol("R1")
        p1.pending[group] = PendingJoin(
            group=group,
            origin=IPv4Address("10.0.0.1"),
            subcode=JoinSubcode.ACTIVE_JOIN,
            target_core=IPv4Address("10.0.3.1"),
            cores=(IPv4Address("10.0.3.1"),),
            upstream_address=IPv4Address("10.0.13.3"),
            upstream_vif=0,
            created_at=-1000.0,  # ancient
        )
        findings = audit_domain(domain)
        assert any(
            f.router == "R1" and f.message.startswith("pending join is")
            for f in errors(findings)
        )

    def test_unserved_member_lan_detected(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        # Membership exists (B reports) but nobody ever joins the tree:
        # suppress joining by making the group unknown to the DR.
        domain.agent("B").join(group, cores=None)
        # Remove the coordinator mapping so R6 cannot resolve cores.
        domain.coordinator._groups.clear()
        for protocol in domain.protocols.values():
            protocol._learned_cores.clear()
        figure1_network.run(until=figure1_network.scheduler.now + 3.0)
        findings = audit_domain(domain)
        assert any(
            "no attached on-tree router" in f.message for f in warnings(findings)
        )

    def test_double_served_lan_detected(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        # Force R5 (off-tree, attached to member LAN S4) on-tree.
        p5 = domain.protocol("R5")
        entry = p5.fib.get_or_create(group)
        entry.set_parent(
            figure1_network.router("R7").primary_address, 1
        )
        # Give the fake parent a matching child record so only the
        # LAN-service check fires.
        p7 = domain.protocol("R7")
        p7.fib.get_or_create(group).add_child(
            figure1_network.router("R5").primary_address, 0
        )
        findings = audit_domain(domain)
        assert any(
            "multiple on-tree routers" in f.message for f in warnings(findings)
        )

    def test_finding_str(self, figure1_full_tree):
        domain, group = figure1_full_tree
        from repro.core.audit import Finding

        f = Finding("error", "R1", group, "boom")
        assert "R1" in str(f) and "boom" in str(f) and "error" in str(f)
