"""Tests for the analysis/rendering tools."""

from repro.analysis import (
    control_census,
    event_timeline,
    render_topology,
    render_tree,
)
from repro.analysis.timeline import MAX_LINES
from repro.netsim.address import group_address
from repro.topology.figures import FIGURE1_MEMBERS
from tests.conftest import join_members


class TestRenderTree:
    def test_shows_all_on_tree_routers(self, figure1_full_tree, figure1_network):
        domain, group = figure1_full_tree
        art = render_tree(domain, group)
        for name in domain.on_tree_routers(group):
            assert name in art

    def test_marks_primary_core(self, figure1_full_tree):
        domain, group = figure1_full_tree
        art = render_tree(domain, group)
        assert "R4 (primary core)" in art

    def test_annotates_member_vifs(self, figure1_full_tree):
        domain, group = figure1_full_tree
        assert "member vifs" in render_tree(domain, group)

    def test_empty_tree(self, figure1_domain):
        domain, group = figure1_domain
        art = render_tree(domain, group)
        assert "no on-tree routers" in art

    def test_structure_is_nested(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A"])
        art = render_tree(domain, group)
        lines = art.splitlines()
        # R4 root at zero indent, then R3 under it, then R1 deeper.
        r4_line = next(l for l in lines if "R4" in l)
        r3_line = next(l for l in lines if l.strip().endswith("R3"))
        r1_line = next(l for l in lines if "R1" in l)
        assert len(r4_line) - len(r4_line.lstrip()) == 0
        assert r3_line.index("R3") > 0
        assert r1_line.index("R1") > r3_line.index("R3")


class TestRenderTopology:
    def test_inventory_counts(self, figure1_network):
        art = render_topology(figure1_network)
        assert "12 routers" in art
        assert "12 hosts" in art

    def test_marks_down_links(self, figure1_network):
        figure1_network.fail_link("S2")
        assert "[DOWN]" in render_topology(figure1_network)

    def test_lists_attachments(self, figure1_network):
        art = render_topology(figure1_network)
        assert "S4" in art
        s4_line = next(l for l in art.splitlines() if l.strip().startswith("S4"))
        for name in ("R2", "R5", "R6", "B"):
            assert name in s4_line


class TestTimeline:
    def test_chronological_order(self, figure1_full_tree):
        domain, group = figure1_full_tree
        text = event_timeline(domain, group=group)
        times = [
            float(line.split("s", 1)[0].split("=")[1])
            for line in text.splitlines()
            if line.startswith("t=")
        ]
        assert times == sorted(times)

    def test_kind_filter(self, figure1_full_tree):
        domain, group = figure1_full_tree
        text = event_timeline(domain, group=group, kinds={"joined"})
        assert "joined" in text
        assert "gdr" not in text

    def test_limit(self, figure1_full_tree, figure1_network):
        # Every member joins 25 more groups: more events than one
        # timeline prints.
        domain, _ = figure1_full_tree
        for index in range(1, 26):
            group = group_address(index)
            domain.create_group(group, cores=["R4", "R9"])
            for member in FIGURE1_MEMBERS:
                domain.join_host(member, group)
        figure1_network.run(until=figure1_network.scheduler.now + 3.0)
        lines = event_timeline(domain).splitlines()
        assert len(lines) == MAX_LINES + 1
        assert lines[-1].endswith(" more events")

    def test_empty(self, figure1_domain):
        domain, group = figure1_domain
        assert "(no events)" in event_timeline(domain, group=group)


class TestControlCensus:
    def test_totals_row(self, figure1_full_tree):
        domain, group = figure1_full_tree
        text = control_census(domain)
        assert "TOTAL" in text
        assert "join_request" in text

    def test_hello_excluded(self, figure1_full_tree):
        domain, group = figure1_full_tree
        assert any(p.stats.sent.get("HELLO") for p in domain.protocols.values())
        assert "hello" not in control_census(domain)
