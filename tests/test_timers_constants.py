"""Tests for the spec's timer table (§9) and protocol constants (§8)."""

import pytest

from repro.core.constants import (
    AGGREGATE,
    CBT_AUX_PORT,
    CBT_PORT,
    CBT_VERSION,
    MAX_CORES,
    NOT_AGGREGATE,
    OFF_TREE,
    ON_TREE,
    QUIT_RETRY_LIMIT,
    JoinAckSubcode,
    JoinSubcode,
    MessageType,
)
from repro.core.timers import DEFAULT_TIMERS


class TestSpecDefaults:
    """The §9 table, value for value."""

    def test_echo_interval(self):
        assert DEFAULT_TIMERS.echo_interval == 30.0

    def test_pend_join_interval(self):
        assert DEFAULT_TIMERS.pend_join_interval == 10.0

    def test_pend_join_timeout(self):
        assert DEFAULT_TIMERS.pend_join_timeout == 30.0

    def test_expire_pending_join(self):
        assert DEFAULT_TIMERS.expire_pending_join == 90.0

    def test_echo_timeout(self):
        assert DEFAULT_TIMERS.echo_timeout == 90.0

    def test_child_assert_interval(self):
        assert DEFAULT_TIMERS.child_assert_interval == 90.0

    def test_child_assert_expire(self):
        assert DEFAULT_TIMERS.child_assert_expire == 180.0

    def test_iff_scan_interval(self):
        assert DEFAULT_TIMERS.iff_scan_interval == 300.0

    def test_reconnect_timeout(self):
        assert DEFAULT_TIMERS.reconnect_timeout == 90.0


class TestTimerOps:
    def test_scaled_preserves_ratios(self):
        scaled = DEFAULT_TIMERS.scaled(0.1)
        assert scaled.echo_interval == pytest.approx(3.0)
        assert scaled.echo_timeout / scaled.echo_interval == pytest.approx(
            DEFAULT_TIMERS.echo_timeout / DEFAULT_TIMERS.echo_interval
        )

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMERS.scaled(0)

    def test_immutable(self):
        with pytest.raises(Exception):
            DEFAULT_TIMERS.echo_interval = 1.0  # type: ignore[misc]


class TestConstants:
    def test_udp_ports(self):
        # Spec §3: primary 7777, auxiliary 7778.
        assert CBT_PORT == 7777
        assert CBT_AUX_PORT == 7778

    def test_message_type_numbering(self):
        # Spec §8.3/§8.4 numbering.
        assert MessageType.JOIN_REQUEST == 1
        assert MessageType.JOIN_ACK == 2
        assert MessageType.JOIN_NACK == 3
        assert MessageType.QUIT_REQUEST == 4
        assert MessageType.QUIT_ACK == 5
        assert MessageType.FLUSH_TREE == 6
        assert MessageType.ECHO_REQUEST == 7
        assert MessageType.ECHO_REPLY == 8

    def test_join_subcodes(self):
        # Spec §8.3.1.
        assert JoinSubcode.ACTIVE_JOIN == 0
        assert JoinSubcode.REJOIN_ACTIVE == 1
        assert JoinSubcode.REJOIN_NACTIVE == 2

    def test_ack_subcodes(self):
        assert JoinAckSubcode.NORMAL == 0
        assert JoinAckSubcode.PROXY_ACK == 1
        assert JoinAckSubcode.REJOIN_NACTIVE == 2

    def test_protocol_version(self):
        # Spec §8.1: this implementation speaks version 1.
        assert CBT_VERSION == 1

    def test_core_list_ceiling(self):
        # Fixed five-slot core list (engineering decision in §8).
        assert MAX_CORES == 5

    def test_on_tree_markers(self):
        # Spec §7: the data-header on-tree byte is all-ones or all-zeros.
        assert ON_TREE == 0xFF
        assert OFF_TREE == 0x00

    def test_aggregate_markers(self):
        # Spec §8.4: auxiliary messages mark aggregation the same way.
        assert AGGREGATE == 0xFF
        assert NOT_AGGREGATE == 0x00

    def test_quit_retry_limit(self):
        # Spec §6.3: "typically 3" QUIT_REQUEST retransmissions.
        assert QUIT_RETRY_LIMIT == 3

    def test_hello_numbered_in_private_range(self):
        # HELLO is our CBTv2-style addition; it must stay clear of the
        # spec's §8.3/§8.4 numbering (1..8).
        assert MessageType.HELLO == 15

    def test_message_type_list_is_closed(self):
        # The full wire-visible type set, so an accidental addition or
        # renumbering fails conformance rather than slipping through.
        assert {t.name: int(t) for t in MessageType} == {
            "JOIN_REQUEST": 1,
            "JOIN_ACK": 2,
            "JOIN_NACK": 3,
            "QUIT_REQUEST": 4,
            "QUIT_ACK": 5,
            "FLUSH_TREE": 6,
            "ECHO_REQUEST": 7,
            "ECHO_REPLY": 8,
            "HELLO": 15,
        }


class TestWireSizes:
    """Header byte sizes and IGMP type codes pinned to the figures."""

    def test_header_sizes(self):
        from repro.core.messages import CONTROL_HEADER_SIZE, DATA_HEADER_SIZE

        # Figure 8 control header is 56 bytes; Figure 7 data header 32.
        assert CONTROL_HEADER_SIZE == 56
        assert DATA_HEADER_SIZE == 32

    def test_igmp_type_codes(self):
        from repro.igmp import messages as igmp

        assert igmp.IGMP_QUERY == 0x11
        assert igmp.IGMP_REPORT == 0x16
        assert igmp.IGMP_LEAVE == 0x17
        assert igmp.IGMP_CORE_REPORT == 0x30
        assert igmp.CORE_REPORT_CODE_CBT == 1
        assert igmp.CORE_REPORT_CODE_PIM == 0
