"""Keepalive tests: echo request/reply, child expiry, aggregation (§6, §8.4)."""

from repro import CBTDomain, group_address
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from tests.conftest import join_members


def run_quiet(network, seconds):
    network.run(until=network.scheduler.now + seconds)


class TestEchoes:
    def test_children_send_echo_requests(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A"])
        run_quiet(figure1_network, FAST_TIMERS.echo_interval * 3)
        p1 = domain.protocol("R1")
        assert p1.stats.sent.get("ECHO_REQUEST", 0) >= 2

    def test_parents_reply(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A"])
        run_quiet(figure1_network, FAST_TIMERS.echo_interval * 3)
        p3 = domain.protocol("R3")
        assert p3.stats.sent.get("ECHO_REPLY", 0) >= 2
        # and R3 itself echoes toward R4
        assert p3.stats.sent.get("ECHO_REQUEST", 0) >= 2

    def test_healthy_tree_never_times_out(self, figure1_domain, figure1_network):
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A", "B", "H"])
        run_quiet(figure1_network, FAST_TIMERS.echo_timeout * 3)
        for name in ("R1", "R2", "R3", "R8", "R9", "R10"):
            assert not domain.protocol(name).events_of("parent_lost"), name
        domain.assert_tree_consistent(group)

    def test_stop_then_start_rearms_each_ticker_exactly_once(
        self, figure1_domain, figure1_network, monkeypatch
    ):
        """``stop()`` used to leave the protocol marked started, so a
        later ``start()`` returned early and the four maintenance
        tickers stayed silent for good."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A"])
        protocol = domain.protocol("R1")
        window = FAST_TIMERS.echo_interval * 4

        def echoes_over_window():
            before = protocol.stats.sent.get("ECHO_REQUEST", 0)
            run_quiet(figure1_network, window)
            return protocol.stats.sent.get("ECHO_REQUEST", 0) - before

        running = echoes_over_window()
        assert running >= 3
        protocol.stop()
        assert echoes_over_window() == 0

        igmp_starts = []
        monkeypatch.setattr(protocol.igmp, "start", lambda: igmp_starts.append(1))
        tickers = list(protocol._tickers)
        protocol.start()
        protocol.start()  # already started: a no-op, not a second chain
        assert protocol._tickers == tickers and len(tickers) == 4
        assert all(ticker._timer.pending for ticker in tickers)
        assert igmp_starts == []  # ``stop()`` never stopped IGMP
        assert abs(echoes_over_window() - running) <= 1

    def test_silent_child_expires(self, figure1_domain, figure1_network):
        """§6.1: a parent that stops hearing echoes removes the child."""
        domain, group = figure1_domain
        join_members(figure1_network, domain, group, ["A"])
        # Silence R1 without touching the R3-R4 side: stop its tickers.
        domain.protocol("R1").stop()
        run_quiet(
            figure1_network,
            FAST_TIMERS.child_assert_expire + FAST_TIMERS.child_assert_interval * 2,
        )
        entry3 = domain.protocol("R3").fib.get(group)
        r1_addresses = {
            i.address for i in figure1_network.router("R1").interfaces
        }
        assert entry3 is None or not (set(entry3.children) & r1_addresses)
        assert domain.protocol("R3").events_of("child_expired")


class TestEchoAggregation:
    """§8.4: echoes may be aggregated per parent across groups."""

    def build(self, figure1_network, aggregate):
        domain = CBTDomain(
            figure1_network,
            timers=FAST_TIMERS,
            igmp_config=FAST_IGMP,
            aggregate_echoes=aggregate,
        )
        groups = [group_address(i) for i in range(4)]
        domain.start()
        figure1_network.run(until=3.0)
        for g in groups:
            domain.create_group(g, cores=["R4", "R9"])
        start = figure1_network.scheduler.now
        for i, g in enumerate(groups):
            figure1_network.scheduler.call_at(
                start + 0.1 * i,
                (lambda gg: (lambda: domain.join_host("A", gg)))(g),
            )
        figure1_network.run(until=start + 2.0)
        return domain, groups

    def count_echoes_after(self, network, domain, seconds):
        before = domain.protocol("R1").stats.sent.get("ECHO_REQUEST", 0)
        network.run(until=network.scheduler.now + seconds)
        return domain.protocol("R1").stats.sent.get("ECHO_REQUEST", 0) - before

    def test_aggregation_reduces_echo_volume(self, figure1_network):
        domain, groups = self.build(figure1_network, aggregate=True)
        for g in groups:
            assert domain.protocol("R1").is_on_tree(g)
        window = FAST_TIMERS.echo_interval * 4
        aggregated = self.count_echoes_after(figure1_network, domain, window)
        # 4 groups share one parent: aggregated echoes ~1 per interval
        # instead of ~4.
        assert aggregated <= 6

    def test_per_group_echo_volume_scales_with_groups(self, figure1_network):
        domain, groups = self.build(figure1_network, aggregate=False)
        window = FAST_TIMERS.echo_interval * 4
        per_group = self.count_echoes_after(figure1_network, domain, window)
        assert per_group >= 12  # ~4 per interval across 4 groups

    def test_aggregated_keepalive_still_detects_failure(self, figure1_network):
        domain, groups = self.build(figure1_network, aggregate=True)
        figure1_network.fail_link("S2")
        figure1_network.run(
            until=figure1_network.scheduler.now
            + FAST_TIMERS.echo_timeout
            + FAST_TIMERS.echo_interval * 3
        )
        lost = domain.protocol("R1").events_of("parent_lost")
        assert len(lost) >= len(groups)
