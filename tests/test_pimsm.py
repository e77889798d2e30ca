"""Tests for the PIM-SM comparison model."""

import random

import pytest

from repro.baselines.pimsm import cbt_equivalent_state, pim_sm_model
from repro.topology.generators import line_graph, waxman_graph


def setup(seed=0, n=30, members=6, senders=3):
    graph = waxman_graph(n, seed=seed)
    rng = random.Random(seed)
    ms = sorted(rng.sample(graph.nodes, members))
    return graph, ms, ms[:senders]


class TestTreesAndPaths:
    def test_rp_tree_spans_members(self):
        graph, members, senders = setup()
        model = pim_sm_model(graph, "N0", members, senders, switchover=False)
        assert model.rp_tree.spans(members)

    def test_source_paths_end_at_rp(self):
        graph, members, senders = setup(seed=1)
        model = pim_sm_model(graph, "N0", members, senders, switchover=False)
        for sender, path in model.source_paths.items():
            assert path[0] == sender and path[-1] == "N0"

    def test_switchover_builds_spts(self):
        graph, members, senders = setup(seed=2)
        model = pim_sm_model(graph, "N0", members, senders, switchover=True)
        assert set(model.spt) == set(senders)
        for tree in model.spt.values():
            assert tree.spans(members)

    def test_no_switchover_no_spts(self):
        graph, members, senders = setup(seed=2)
        model = pim_sm_model(graph, "N0", members, senders, switchover=False)
        assert model.spt == {}


class TestDelay:
    def test_switchover_gives_unicast_delay(self):
        graph, members, senders = setup(seed=3)
        model = pim_sm_model(graph, "N5", members, senders, switchover=True)
        assert model.mean_stretch() == pytest.approx(1.0)

    def test_rp_detour_costs_delay_on_a_line(self):
        """Sender and receiver adjacent, RP far away: the no-switchover
        delay is dominated by the RP detour."""
        graph = line_graph(10)
        model = pim_sm_model(
            graph, rp="N9", members=["N1"], senders=["N0"], switchover=False
        )
        # N0 -> N9 (9 hops) + N9 -> N1 (8 hops) = 17, vs 1 direct.
        assert model.delivery_delay("N0", "N1") == pytest.approx(17.0)
        with_switch = pim_sm_model(
            graph, rp="N9", members=["N1"], senders=["N0"], switchover=True
        )
        assert with_switch.delivery_delay("N0", "N1") == pytest.approx(1.0)


class TestState:
    def test_switchover_state_exceeds_rp_tree_state(self):
        graph, members, senders = setup(seed=5)
        shared_only = pim_sm_model(graph, "N0", members, senders, switchover=False)
        switched = pim_sm_model(graph, "N0", members, senders, switchover=True)
        assert switched.total_state() > shared_only.total_state()

    def test_state_grows_with_senders(self):
        graph, members, _ = setup(seed=6, senders=1)
        few = pim_sm_model(graph, "N0", members, members[:1], switchover=True)
        many = pim_sm_model(graph, "N0", members, members[:4], switchover=True)
        assert many.total_state() > few.total_state()

    def test_cbt_state_is_sender_independent_and_smaller(self):
        graph, members, senders = setup(seed=7)
        cbt = cbt_equivalent_state(graph, "N0", members)
        pim = pim_sm_model(graph, "N0", members, senders, switchover=True)
        assert all(v == 1 for v in cbt.values())
        assert sum(cbt.values()) < pim.total_state()

    def test_per_router_entries_counted_per_source(self):
        graph = line_graph(5)
        model = pim_sm_model(
            graph,
            rp="N4",
            members=["N0"],
            senders=["N0", "N4"],
            switchover=True,
        )
        state = model.state_per_router()
        # N2 sits on the RP tree and on both SPT/source paths.
        assert state["N2"] == 3  # (*,G) + (N0,G) + (N4,G)
