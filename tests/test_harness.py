"""Tests for the experiment harness: formatting, sweeps, scenarios."""

import pytest

from repro.harness.experiment import Experiment, SweepResult
from repro.harness.formatting import format_table
from repro.harness.scenarios import (
    build_cbt_group,
    build_dvmrp_group,
    judge_delivery,
    pick_members,
    send_data,
)
from repro.netsim.address import group_address
from repro.topology.figures import build_figure1
from repro.topology.generators import waxman_network


class TestFormatting:
    def test_table_alignment(self):
        table = format_table(
            ["name", "value"], [["alpha", 1], ["b", 22.5]], title="t"
        )
        lines = table.splitlines()
        assert lines[0] == "t"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_rendering(self):
        out = format_table(["x"], [[1.23456], [12345.6], [0.0001]])
        assert "1.235" in out
        assert "1.23e+04" in out
        assert "0.0001" in out


class TestSweep:
    def test_sweep_result_columns(self):
        sweep = SweepResult(headers=["n", "cost"])
        sweep.add(1, 10)
        sweep.add(2, 20)
        assert sweep.column("cost") == [10, 20]

    def test_sweep_row_width_checked(self):
        sweep = SweepResult(headers=["a"])
        with pytest.raises(ValueError):
            sweep.add(1, 2)

    def test_experiment_run_sweep(self):
        exp = Experiment(
            exp_id="T1", title="demo", paper_expectation="linear"
        )
        result = exp.run_sweep(["n", "sq"], [(n, n * n) for n in [1, 2, 3]])
        assert result.column("sq") == [1, 4, 9]
        report = exp.report()
        assert "T1" in report and "linear" in report


class TestScenarios:
    def test_pick_members_deterministic(self):
        net = waxman_network(10, seed=0)
        assert pick_members(net, 3, seed=1) == pick_members(net, 3, seed=1)

    def test_pick_members_bounds(self):
        net = waxman_network(5, seed=0)
        with pytest.raises(ValueError):
            pick_members(net, 50)

    def test_build_cbt_group_end_to_end(self):
        net = waxman_network(10, seed=1)
        members = pick_members(net, 3, seed=1)
        domain, group = build_cbt_group(net, members, cores=["N0"])
        member_routers = [m.replace("H_", "") for m in members]
        for name in member_routers:
            assert domain.protocol(name).is_on_tree(group), name
        domain.assert_tree_consistent(group)

    def test_build_cbt_group_second_group_reuses_domain(self):
        net = waxman_network(10, seed=2)
        members = pick_members(net, 3, seed=2)
        domain, g0 = build_cbt_group(net, members, cores=["N0"])
        domain2, g1 = build_cbt_group(
            net, members, cores=["N1"], group=group_address(1), domain=domain
        )
        assert domain2 is domain
        assert g0 != g1
        domain.assert_tree_consistent(g1)

    def test_send_data_returns_uids(self):
        net = waxman_network(8, seed=3)
        members = pick_members(net, 2, seed=3)
        domain, group = build_cbt_group(net, members, cores=["N0"])
        uids = send_data(net, members[0], group, count=3)
        assert len(uids) == 3
        assert len(set(uids)) == 3

    def test_build_dvmrp_group(self):
        net = waxman_network(8, seed=4)
        members = pick_members(net, 2, seed=4)
        domain, group = build_dvmrp_group(net, members)
        uid = send_data(net, members[0], group, count=1)[0]
        other = members[1]
        assert any(d.uid == uid for d in net.host(other).delivered)


class TestDeliveryOracle:
    def test_judges_against_the_members_of_the_moment(self):
        """H left and J joined after the build: H is not expected, J
        is; a second copy of a probe is a finding naming the member."""
        net = build_figure1(trace_enabled=False)
        domain, group = build_cbt_group(net, ["A", "B", "G", "H"], cores=["R4", "R9"])
        domain.leave_host("H", group)
        domain.join_host("J", group)
        net.run(until=net.scheduler.now + 5.0)
        uids = send_data(net, "A", group, count=2, spacing=0.05)
        delivery = judge_delivery(net, group, "A", uids)
        assert delivery.members == ("B", "G", "J")
        assert delivery.served == ("B", "G", "J")
        assert (delivery.missed, delivery.duplicated, delivery.fraction) == ((), (), 1.0)
        assert not any(d.uid in uids for d in net.host("H").delivered)

        log = net.host("G").delivered
        log.append(next(d for d in log if d.uid == uids[1]))
        delivery = judge_delivery(net, group, "A", uids)
        assert delivery.duplicated == (("G", uids[1]),)
        assert delivery.fraction == 5 / 6
        assert delivery.findings("probe") == ["probe: G got duplicates of 1 probe(s)"]
        net.close()

    def test_a_miss_is_a_finding_naming_the_member(self):
        net = build_figure1(trace_enabled=False)
        domain, group = build_cbt_group(net, ["A", "B", "G"], cores=["R4", "R9"])
        uids = send_data(net, "A", group, count=2, spacing=0.05)
        net.host("B").delivered.clear()
        delivery = judge_delivery(net, group, "A", uids)
        assert delivery.missed == (("B", uids[0]), ("B", uids[1]))
        assert delivery.served == ("G",)
        assert delivery.fraction == 0.5
        assert delivery.findings("probe") == ["probe: B missed 2 probe(s)"]
        net.close()

    def test_a_copy_back_to_the_sender_is_a_duplicate(self):
        """The sender is no member, so an echo leaves the fraction over
        the members at 1.0 and is still a finding naming the sender."""
        net = build_figure1(trace_enabled=False)
        domain, group = build_cbt_group(net, ["A", "B", "G"], cores=["R4", "R9"])
        uids = send_data(net, "A", group, count=2, spacing=0.05)
        net.host("A").delivered.append(next(d for d in net.host("B").delivered if d.uid == uids[0]))
        delivery = judge_delivery(net, group, "A", uids)
        assert delivery.members == ("B", "G")
        assert (delivery.missed, delivery.duplicated) == ((), (("A", uids[0]),))
        assert delivery.fraction == 1.0
        assert delivery.findings("probe") == ["probe: A got duplicates of 1 probe(s)"]
        net.close()
