"""Wire-format mode: control messages as §8 bytes on every hop."""

import pytest

from repro import CBTDomain, group_address
from repro.core.constants import CBT_PORT
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data
from repro.netsim.packet import PROTO_UDP
from tests.conftest import join_members


@pytest.fixture
def wire_domain(figure1_network):
    domain = CBTDomain(
        figure1_network,
        timers=FAST_TIMERS,
        igmp_config=FAST_IGMP,
        wire_format=True,
    )
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    figure1_network.run(until=3.0)
    return domain, group


def make_wire_domain(network, **kwargs):
    domain = CBTDomain(
        network,
        timers=FAST_TIMERS,
        igmp_config=FAST_IGMP,
        wire_format=True,
        **kwargs,
    )
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    network.run(until=3.0)
    return domain, group


class TestWireFormatOperation:
    def test_joins_work_over_bytes(self, wire_domain, figure1_network):
        domain, group = wire_domain
        join_members(figure1_network, domain, group, ["A", "B", "H"])
        domain.assert_tree_consistent(group)
        for name in ("R1", "R2", "R8", "R9", "R10"):
            assert domain.protocol(name).is_on_tree(group), name

    def test_control_payloads_are_bytes_on_the_wire(
        self, wire_domain, figure1_network
    ):
        domain, group = wire_domain
        figure1_network.trace.clear()
        join_members(figure1_network, domain, group, ["A"])
        control_tx = [
            r
            for r in figure1_network.trace.transmissions()
            if r.datagram.proto == PROTO_UDP
            and getattr(r.datagram.payload, "dport", None) == CBT_PORT
        ]
        assert control_tx
        assert all(
            isinstance(r.datagram.payload.payload, (bytes, bytearray))
            for r in control_tx
        )

    def test_data_and_teardown_work(self, wire_domain, figure1_network):
        domain, group = wire_domain
        join_members(figure1_network, domain, group, ["A", "H"])
        uid = send_data(figure1_network, "A", group, count=1)[0]
        assert sum(1 for d in figure1_network.host("H").delivered if d.uid == uid) == 1
        domain.leave_host("H", group)
        figure1_network.run(until=figure1_network.scheduler.now + 40.0)
        assert not domain.protocol("R10").is_on_tree(group)

    def test_keepalives_survive_wire_mode(self, wire_domain, figure1_network):
        domain, group = wire_domain
        join_members(figure1_network, domain, group, ["A"])
        figure1_network.run(
            until=figure1_network.scheduler.now + FAST_TIMERS.echo_timeout * 3
        )
        assert not domain.protocol("R1").events_of("parent_lost")


class TestCorruptionHandling:
    def flip_byte(self, payload):
        data = bytearray(payload)
        data[9] ^= 0xFF
        return bytes(data)

    def test_corrupted_messages_dropped_and_recovered(self, figure1_network):
        """A link that corrupts some control bytes: checksums catch it,
        retransmission recovers the join."""
        domain, group = make_wire_domain(figure1_network)
        link = figure1_network.link("L_R3_R4")
        corrupted = []
        original_transmit = link.transmit

        def corrupting_transmit(sender, datagram, link_dst=None):
            payload = getattr(datagram.payload, "payload", None)
            if (
                isinstance(payload, (bytes, bytearray))
                and len(corrupted) < 1
            ):
                corrupted.append(datagram)
                from repro.netsim.packet import IPDatagram, UDPDatagram

                datagram = IPDatagram(
                    src=datagram.src,
                    dst=datagram.dst,
                    proto=datagram.proto,
                    payload=UDPDatagram(
                        sport=datagram.payload.sport,
                        dport=datagram.payload.dport,
                        payload=self.flip_byte(payload),
                    ),
                    ttl=datagram.ttl,
                    uid=datagram.uid,
                )
            original_transmit(sender, datagram, link_dst=link_dst)

        link.transmit = corrupting_transmit
        join_members(figure1_network, domain, group, ["A"], settle=20.0)
        assert corrupted, "the corruption hook never fired"
        decode_errors = sum(
            p.stats.decode_errors for p in domain.protocols.values()
        )
        assert decode_errors >= 1
        assert domain.protocol("R1").is_on_tree(group)

    def test_version_mismatch_rejected(self, figure1_network):
        from repro.core.constants import JoinSubcode, MessageType
        from repro.core.messages import CBTControlMessage
        from repro.netsim.address import IPv4Address
        from repro.netsim.packet import make_udp

        domain, group = make_wire_domain(figure1_network)
        p3 = domain.protocol("R3")
        alien = CBTControlMessage(
            msg_type=MessageType.JOIN_REQUEST,
            code=int(JoinSubcode.ACTIVE_JOIN),
            group=group,
            origin=IPv4Address("10.0.0.1"),
            target_core=figure1_network.router("R4").primary_address,
            cores=(figure1_network.router("R4").primary_address,),
            version=2,  # future CBT version
        )
        r3 = figure1_network.router("R3")
        datagram = make_udp(
            IPv4Address("10.0.0.1"),
            r3.primary_address,
            CBT_PORT,
            CBT_PORT,
            alien.encode(),
        )
        before = p3.stats.decode_errors
        p3._handle_udp(r3, r3.interfaces[0], datagram)
        assert p3.stats.decode_errors == before + 1
        assert group not in p3.pending

    def test_dispatch_table_maps_each_message_type_to_its_method(self):
        from repro.core import router
        from repro.core.constants import MessageType

        expected = {
            MessageType.JOIN_REQUEST: "_recv_join_request",
            MessageType.JOIN_ACK: "_recv_join_ack",
            MessageType.JOIN_NACK: "_recv_join_nack",
            MessageType.QUIT_REQUEST: "_recv_quit_request",
            MessageType.QUIT_ACK: "_recv_quit_ack",
            MessageType.FLUSH_TREE: "_recv_flush",
            MessageType.ECHO_REQUEST: "_recv_echo_request",
            MessageType.ECHO_REPLY: "_recv_echo_reply",
            MessageType.HELLO: "_recv_hello",
        }
        assert set(router._CONTROL_HANDLERS) == set(expected)
        for msg_type, name in expected.items():
            assert router._CONTROL_HANDLERS[msg_type] is getattr(
                router.CBTProtocol, name
            )

    def test_message_type_outside_the_table_is_counted_and_ignored(
        self, figure1_network
    ):
        import enum

        from repro.core.messages import CBTControlMessage
        from repro.netsim.address import IPv4Address
        from repro.netsim.packet import make_udp

        class FutureType(enum.IntEnum):
            REDIRECT = 9

        domain, group = make_wire_domain(figure1_network)
        p3 = domain.protocol("R3")
        r3 = figure1_network.router("R3")
        datagram = make_udp(
            IPv4Address("10.0.0.1"),
            r3.primary_address,
            CBT_PORT,
            CBT_PORT,
            CBTControlMessage(
                msg_type=FutureType.REDIRECT,
                code=0,
                group=group,
                origin=IPv4Address("10.0.0.1"),
            ),
        )

        def state():
            return (
                p3.stats.decode_errors,
                domain.events_total(),
                dict(p3.stats.sent),
                figure1_network.scheduler.events_scheduled,
            )

        before = state()
        p3._handle_udp(r3, r3.interfaces[0], datagram)
        assert domain.telemetry.registry.value("cbt.router.R3.rx.redirect") == 1
        assert state() == before
