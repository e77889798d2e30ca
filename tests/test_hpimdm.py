"""Tests for the HPIM-DM hard-state dense-mode comparator engine.

Covers the ISSUE-10 checklist: simultaneous assert elections on a
shared LAN, a neighbour flap mid-election, and the hypothesis property
that after quiescence every (source, group) has exactly one upstream
winner per link — plus the engine basics (exactly-once delivery, hard
prune/graft, and the zero-quiescent-control property that motivates
the comparison with CBT).
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import group_address
from repro.baselines.hpimdm import (
    ALL_HPIM_ROUTERS,
    INFINITE_METRIC,
    PROTO_HPIM,
    HPIMDMDomain,
    HpimHello,
)
from repro.harness.scenarios import (
    FAST_IGMP,
    build_hpimdm_group,
    pick_members,
    send_data,
    send_one,
)
from repro.netsim.packet import IPDatagram
from repro.telemetry import payload_label
from repro.topology.builder import Network
from repro.topology.figures import build_figure1
from repro.topology.generators import waxman_network


def delivered_counts(network, members, uids):
    uid_set = set(uids)
    return {
        member: sum(
            1
            for datagram in network.host(member).delivered
            if datagram.uid in uid_set
        )
        for member in members
    }


def quiesce(network, seconds=12.0):
    network.run(until=network.scheduler.now + seconds)


class TestDelivery:
    def test_exactly_once_delivery_figure1(self):
        network = build_figure1()
        members = ["A", "G", "H"]
        domain, group = build_hpimdm_group(network, members)
        uids = send_data(network, "B", group, count=3, spacing=0.05)
        quiesce(network)
        counts = delivered_counts(network, members, uids)
        assert counts == {m: 3 for m in members}
        assert domain.election_findings() == []
        assert domain.pending_total() == 0

    def test_source_lan_member_gets_data_directly(self):
        # B and the source share S4: delivery must not depend on any
        # election outcome (the source LAN needs no upstream winner).
        network = build_figure1()
        domain, group = build_hpimdm_group(network, ["B", "A"])
        uids = send_data(network, "B", group, count=2, spacing=0.05)
        quiesce(network)
        counts = delivered_counts(network, ["A"], uids)
        assert counts["A"] == 2


class TestHardState:
    def test_quiescent_control_cost_is_zero(self):
        """The no-re-flood property: once synchronised, only hellos
        flow — the hard-state control counter stays flat forever."""
        network = build_figure1()
        domain, group = build_hpimdm_group(network, ["A", "G"])
        send_data(network, "B", group, count=2, spacing=0.05)
        quiesce(network)
        assert domain.pending_total() == 0
        control = domain.control_messages()
        events = domain.events_total()
        hellos = domain.hello_messages()
        network.run(until=network.scheduler.now + 100.0)
        assert domain.control_messages() == control
        assert domain.events_total() == events
        assert domain.hello_messages() > hellos  # the one periodic message

    def test_prune_then_graft(self):
        network = build_figure1()
        domain, group = build_hpimdm_group(network, ["A", "G"])
        send_data(network, "B", group, count=1)
        quiesce(network)
        domain.leave_host("G", group)
        quiesce(network)
        gone = send_data(network, "B", group, count=2, spacing=0.05)
        quiesce(network)
        assert delivered_counts(network, ["G"], gone)["G"] == 0
        assert delivered_counts(network, ["A"], gone)["A"] == 2
        domain.join_host("G", group)
        quiesce(network)
        back = send_data(network, "B", group, count=2, spacing=0.05)
        quiesce(network)
        assert delivered_counts(network, ["G"], back)["G"] == 2
        assert domain.election_findings() == []


class TestSharedLanElections:
    def test_single_winner_on_multi_router_lan(self):
        # S4 attaches R2, R5 and R6; with the source elsewhere, all
        # three assert and exactly one must win the (S, G) election.
        network = build_figure1()
        domain, group = build_hpimdm_group(network, ["B"])
        uids = send_data(network, "A", group, count=2, spacing=0.05)
        quiesce(network)
        source = network.host("A").interface.address
        winners = domain.upstream_winners(source, group)
        assert len(winners["S4"]) == 1, winners["S4"]
        assert domain.election_findings() == []
        assert delivered_counts(network, ["B"], uids)["B"] == 2

    def test_simultaneous_elections_two_sources(self):
        """Two sources start flooding at the same instant, so every
        shared link runs two independent (S, G) elections at once;
        each must converge to exactly one winner and members must see
        each stream exactly once."""
        network = build_figure1()
        members = ["B", "G", "H"]
        domain, group = build_hpimdm_group(network, members)
        start = network.scheduler.now
        uids_a = []
        uids_e = []

        def fire(host, sink):
            def send() -> None:
                from repro.netsim.packet import (
                    IPDatagram,
                    PROTO_UDP,
                    UDPDatagram,
                )

                h = network.host(host)
                datagram = IPDatagram(
                    src=h.interface.address,
                    dst=group,
                    proto=PROTO_UDP,
                    payload=UDPDatagram(
                        sport=40000, dport=5000, payload=b"x" * 32
                    ),
                    ttl=64,
                )
                sink.append(datagram.uid)
                h.originate(datagram)

            return send

        network.scheduler.call_at(start, fire("A", uids_a))
        network.scheduler.call_at(start, fire("E", uids_e))
        network.run(until=start + 15.0)
        assert domain.election_findings() == []
        assert domain.pending_total() == 0
        for source_host in ("A", "E"):
            source = network.host(source_host).interface.address
            for link, claimants in domain.upstream_winners(
                source, group
            ).items():
                assert len(claimants) <= 1, (source_host, link, claimants)
        assert delivered_counts(network, members, uids_a) == {
            m: 1 for m in members
        }
        assert delivered_counts(network, members, uids_e) == {
            m: 1 for m in members
        }

    def test_losers_withdraw_with_infinite_metric(self):
        network = build_figure1()
        domain, group = build_hpimdm_group(network, ["B"])
        send_data(network, "A", group, count=1)
        quiesce(network)
        source = network.host("A").interface.address
        (winner,) = domain.upstream_winners(source, group)["S4"]
        for name in ("R2", "R5", "R6"):
            protocol = domain.protocol(name)
            entry = protocol.entries.get((source, group))
            if entry is None or name == winner:
                continue
            vif = next(
                interface.vif
                for interface in protocol.router.interfaces
                if interface in network.links["S4"].interfaces
            )
            if entry.upstream_vif == vif:
                continue  # S4 is its path to the source, not downstream
            assert entry.my_assert.get(vif, INFINITE_METRIC) == INFINITE_METRIC


class TestNeighbourFlap:
    def test_flap_mid_election_converges(self):
        """A transit LAN goes down mid-election for longer than the
        hold time (so its neighbours age out and are flushed), then
        returns; hello-driven resynchronisation must rebuild claims
        and converge to one winner per link."""
        network = build_figure1()
        members = ["A", "G", "H"]
        domain, group = build_hpimdm_group(network, members)
        # First packet kicks the elections off...
        send_data(network, "B", group, count=1)
        # ...then S2 (R1/R2/R3) drops for > neighbour_hold mid-flight.
        network.fail_link("S2")
        network.run(until=network.scheduler.now + 5.0)
        network.restore_link("S2")
        quiesce(network, seconds=15.0)
        assert domain.election_findings() == []
        assert domain.pending_total() == 0
        probe = send_data(network, "B", group, count=2, spacing=0.05)
        quiesce(network)
        assert delivered_counts(network, members, probe) == {
            m: 2 for m in members
        }

    def test_router_crash_mid_election_converges(self):
        network = build_figure1()
        members = ["A", "G"]
        domain, group = build_hpimdm_group(network, members)
        send_data(network, "B", group, count=1)
        network.fail_router("R3")
        network.run(until=network.scheduler.now + 5.0)
        network.restore_router("R3")
        quiesce(network, seconds=15.0)
        assert domain.election_findings() == []
        probe = send_data(network, "B", group, count=2, spacing=0.05)
        quiesce(network)
        assert delivered_counts(network, members, probe) == {
            m: 2 for m in members
        }


class TestRestartedNeighbour:
    """A neighbour that HELLOs with a new ``gen_id`` has restarted: its
    synchronised state is gone.  X flushes what it held from the old
    incarnation (claims, interests, the acks it was owed) with one
    ``_neighbour_down``, and only then lets the fresh record replace the
    old one, so the flush's own advertisements go to the audience the
    old record allows; then X re-sends its whole link state to the
    newcomer.

    Z feeds source S to X (over ``zx``) and Y (over ``zy``), and X alone
    serves source T; X and Y share ``lan`` with member M.  So on
    ``lan`` X holds Y's assert claim for (S, G) and Y's interest for
    (T, G), and X's own assert for (S, G) goes to Y.
    """

    def _world(self, gated):
        """The settled world with every ``gated`` message Y sends onto
        ``lan`` dropped from t=5 on; returns it and when X last heard
        Y's hello."""
        network = Network()
        x, y, z = (network.add_router(name) for name in ("X", "Y", "Z"))
        network.add_host("S", network.add_subnet("s_lan", [z]))
        network.add_host("T", network.add_subnet("t_lan", [x]))
        lan = network.add_subnet("lan", [x, y])
        network.add_host("M", lan)
        network.add_p2p("zx", z, x)
        network.add_p2p("zy", z, y)
        network.converge()
        domain = HPIMDMDomain(
            network,
            hello_interval=1.0,
            neighbour_hold=3.5,
            rtx_interval=0.5,
            igmp_config=FAST_IGMP,
        )
        domain.start()
        group = group_address(0)
        network.run(until=3.0)
        domain.join_host("M", group)
        network.run(until=5.0)
        y_lan = y.interface_on(lan.network)
        lan.gate = lambda link, sender, datagram: not (
            sender is y_lan and payload_label(datagram) == gated
        )
        for host in ("S", "T"):
            network.scheduler.call_at(5.5, send_one, network.host(host), group, 64, [])
        network.run(until=5.5)
        heard = 5.0 + lan.delay  # Y's last hello before the gate
        return network, domain, x.interface_on(lan.network), y_lan.address, heard

    def _held_from(self, protocol, address):
        """What X holds from ``address``: (claim vifs, interest vifs,
        pending advertisements waiting on it)."""
        return (
            sorted(
                vif
                for entry in protocol.entries.values()
                for vif, table in entry.claims.items()
                if address in table
            ),
            sorted(
                vif
                for entry in protocol.entries.values()
                for vif, table in entry.interests.items()
                if address in table
            ),
            sorted(
                (key[0], key[1], str(key[2]))
                for key, pending in protocol._pending.items()
                if address in pending.waiting
            ),
        )

    def _restart(self, protocol, arrival, address):
        """Hand X a new-``gen_id`` hello from ``address``; returns what X
        held from it right after each ``_neighbour_down`` and the
        deltas of X's counters."""
        flushes = []
        neighbour_down = protocol._neighbour_down

        def spy(vif, down):
            neighbour_down(vif, down)
            flushes.append((vif, down, self._held_from(protocol, address)))

        protocol._neighbour_down = spy
        before = (
            protocol.state_changes,
            protocol.stats.asserts_sent,
            protocol.stats.interests_sent,
        )
        hello = IPDatagram(
            src=address,
            dst=ALL_HPIM_ROUTERS,
            proto=PROTO_HPIM,
            payload=HpimHello(gen_id=2),
            ttl=1,
        )
        protocol._handle_control(protocol.router, arrival, hello)
        after = (
            protocol.state_changes,
            protocol.stats.asserts_sent,
            protocol.stats.interests_sent,
        )
        return flushes, tuple(b - a for a, b in zip(before, after))

    def test_restart_while_the_old_record_is_live(self):
        # Y's acks are dropped, so X's asserts on ``lan`` still wait on
        # Y when Y restarts.
        network, domain, x_lan, y, heard = self._world("HpimAck")
        network.run(until=heard + 0.75)
        protocol = domain.protocol("X")
        s, t = (str(network.host(h).interface.address) for h in ("S", "T"))
        vif = x_lan.vif
        asserts = [(vif, "assert", s), (vif, "assert", t)]
        assert self._held_from(protocol, y) == ([vif], [vif], asserts)
        flushes, deltas = self._restart(protocol, x_lan, y)
        assert flushes == [(vif, y, ([], [], []))]
        # One change for the flush, one for the fresh record and one
        # for each assert re-sent to Y; the flush re-advertises nothing.
        assert deltas == (4, 2, 0)
        assert y in dict(protocol.neighbours.items())[vif]
        assert self._held_from(protocol, y) == ([], [], asserts)

    def test_restart_after_the_hold_before_the_sweep(self):
        # Y's hellos are dropped: at heard + 3.75 its record is past the
        # hold but X's next sweep (heard + 4) has not run.  ``zx`` fails
        # at the same instant, so the flush's re-evaluation moves X's
        # upstream for S onto ``lan`` and withdraws X's assert there.
        network, domain, x_lan, y, heard = self._world("HpimHello")
        network.run(until=heard + 3.75)
        protocol = domain.protocol("X")
        s = str(network.host("S").interface.address)
        vif = x_lan.vif
        assert y in dict(protocol.neighbours.items())[vif]
        assert self._held_from(protocol, y) == ([vif], [vif], [])
        network.fail_link("zx")
        flushes, deltas = self._restart(protocol, x_lan, y)
        # The withdrawal went to the stale record's audience, which
        # excludes Y: nothing on ``lan`` waits on it after the flush.
        assert flushes == [(vif, y, ([], [], []))]
        assert deltas == (11, 3, 2)
        # Then the whole link state went to Y alone.
        t = str(network.host("T").interface.address)
        assert self._held_from(protocol, y) == (
            [],
            [],
            [(vif, "assert", s), (vif, "assert", t), (vif, "interest", s)],
        )


class TestOneWinnerProperty:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_exactly_one_upstream_winner_per_link(self, seed):
        """After quiescence, every (source, group) tree has at most
        one election winner on every link, no unacked advertisements,
        and no election findings — whatever the topology."""
        network = waxman_network(12, seed=seed)
        members = pick_members(network, 3, seed=seed)
        domain, group = build_hpimdm_group(network, members)
        sender = pick_members(network, 1, seed=seed + 1)[0]
        send_data(network, sender, group, count=1)
        quiesce(network, seconds=20.0)
        assert domain.election_findings() == []
        assert domain.pending_total() == 0
        source = network.host(sender).interface.address
        for link, claimants in domain.upstream_winners(source, group).items():
            assert len(claimants) <= 1, (seed, link, claimants)


class TestExplorerScenario:
    def test_scenario_registered_with_hpim_hooks(self):
        from repro.explore.scenarios import get_scenario

        scenario = get_scenario("hpimdm-elections")
        assert scenario.gate_types == (
            "HpimAssert",
            "HpimInterest",
            "HpimAck",
        )
        assert scenario.leg == "hpimdm"
        assert scenario.row.transition is not None
        assert scenario.row.convergence is not None
        assert scenario.row.fingerprint is not None
        assert "HpimHello" in scenario.row.quiet_types

    def test_convergence_oracle_wants_each_probe_exactly_once(self, monkeypatch):
        """A member that gets one probe twice and the other never has
        as many copies as probes, and is still wrong."""
        from repro.explore.scenarios import get_scenario
        from repro.harness import campaign

        scenario = get_scenario("hpimdm-elections")
        world = scenario.build()
        for host in ("G", "H"):  # the window's joins
            world.domain.join_host(host, world.group)
        uids = [-1, -2]

        def send_data(network, sender, group, count, spacing):
            assert sender == "B"
            for member in world.members:
                got = [uids[0], uids[0]] if member == "G" else uids
                network.host(member).delivered.extend(
                    SimpleNamespace(uid=uid) for uid in got
                )
            return list(uids)

        monkeypatch.setattr(campaign, "send_data", send_data)
        try:
            findings = scenario.row.convergence(world)
        finally:
            world.close()
        assert [f for f in findings if f.startswith("probe ")] == [
            "probe after convergence: G missed 1 probe(s)",
            "probe after convergence: G got duplicates of 1 probe(s)",
        ]

    def test_bounded_exploration_is_clean(self):
        from repro.explore.engine import explore
        from repro.explore.scenarios import get_scenario, scenario_options

        scenario = get_scenario("hpimdm-elections")
        options = scenario_options(scenario, max_decisions=2, max_runs=100)
        result = explore(scenario, options)
        assert result.ok, result.counterexample.summary()
        assert result.exhausted

