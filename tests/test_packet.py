"""Tests for the IP/UDP datagram model."""

import pytest
from hypothesis import example, given, strategies as st

from repro.netsim.address import IPv4Address
from repro.netsim.packet import (
    DEFAULT_TTL,
    IPDatagram,
    PROTO_UDP,
    UDPDatagram,
    make_udp,
)

SRC = IPv4Address("10.0.0.1")
DST = IPv4Address("10.0.1.1")
GROUP = IPv4Address("239.0.0.1")


class TestIPDatagram:
    def test_uids_are_unique(self):
        a = IPDatagram(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"")
        b = IPDatagram(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"")
        assert a.uid != b.uid

    def test_decrement_preserves_uid(self):
        a = IPDatagram(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"")
        b = a.decremented()
        assert b.uid == a.uid
        assert b.ttl == a.ttl - 1

    def test_decrement_below_zero_rejected(self):
        a = IPDatagram(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"", ttl=0)
        with pytest.raises(ValueError):
            a.decremented()

    def test_ttl_range_validated(self):
        with pytest.raises(ValueError):
            IPDatagram(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"", ttl=256)

    def test_with_ttl(self):
        a = IPDatagram(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"")
        assert a.with_ttl(1).ttl == 1
        assert a.with_ttl(1).uid == a.uid

    def test_multicast_detection(self):
        assert IPDatagram(src=SRC, dst=GROUP, proto=PROTO_UDP, payload=b"").is_multicast
        assert not IPDatagram(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"").is_multicast

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    @example(int(IPv4Address("223.255.255.255")))
    @example(int(IPv4Address("224.0.0.0")))
    @example(int(IPv4Address("239.255.255.255")))
    @example(int(IPv4Address("240.0.0.0")))
    def test_multicast_detection_agrees_with_ipaddress(self, value):
        dst = IPv4Address(value)
        datagram = IPDatagram(src=SRC, dst=dst, proto=PROTO_UDP, payload=b"")
        assert datagram.is_multicast is dst.is_multicast

    def test_multicast_flag_survives_copies(self):
        for dst in (GROUP, DST):
            a = IPDatagram(src=SRC, dst=dst, proto=PROTO_UDP, payload=b"")
            copies = [a.decremented(), a.with_ttl(1), make_udp(SRC, dst, 1, 2, b"")]
            assert [c.is_multicast for c in copies] == [dst.is_multicast] * 3
        # recomputed, not copied: ``a`` ends the loop unicast
        assert IPDatagram(a.src, GROUP, a.proto, a.payload, a.ttl, a.uid).is_multicast
        assert a._replace(dst=GROUP).is_multicast

    def test_multicast_flag_is_derived_not_identity(self):
        a = IPDatagram(src=SRC, dst=GROUP, proto=PROTO_UDP, payload=b"", uid=7)
        # Forged past the constructor, which would derive the flag: the
        # two differ in nothing else.
        b = tuple.__new__(IPDatagram, a[:6] + (False,))
        assert a.is_multicast and not b.is_multicast
        assert a == b and hash(a) == hash(b)
        assert "is_multicast" not in repr(a)
        with pytest.raises(TypeError):
            a._replace(is_multicast=False)
        with pytest.raises(TypeError):
            IPDatagram(
                src=SRC, dst=GROUP, proto=PROTO_UDP, payload=b"", is_multicast=False
            )

    @given(
        src=st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address),
        dst=st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address),
        proto=st.sampled_from([2, 4, 7, 17]),
        ttl=st.integers(min_value=0, max_value=255),
        new_ttl=st.integers(min_value=-3, max_value=258),
        uid=st.integers(min_value=1, max_value=2**40),
    )
    def test_copies_equal_dataclasses_replace(self, src, dst, proto, ttl, new_ttl, uid):
        """``decremented`` / ``with_ttl`` / ``make_udp`` against a
        datagram built field by field (``dataclasses.replace`` was the
        reference while datagrams were dataclasses; ``_replace`` is
        what is left of it and must agree)."""
        payload = object()  # carried by identity, whatever it is
        a = IPDatagram(src=src, dst=dst, proto=proto, payload=payload, ttl=ttl, uid=uid)
        if 0 <= new_ttl <= 255:
            copy = a.with_ttl(new_ttl)
            assert copy == IPDatagram(src, dst, proto, payload, new_ttl, uid)
            assert copy == a._replace(ttl=new_ttl)
            assert (copy.uid, copy.payload, copy.is_multicast) == (
                uid, payload, dst.is_multicast
            )
        else:
            with pytest.raises(ValueError):
                a.with_ttl(new_ttl)
        if ttl == 0:
            with pytest.raises(ValueError):
                a.decremented()
        else:
            assert a.decremented() == IPDatagram(src, dst, proto, payload, ttl - 1, uid)
            assert a.decremented() == a._replace(ttl=ttl - 1)
            assert a.decremented().is_multicast is dst.is_multicast
        made = make_udp(src, dst, 1, 2, payload, ttl=ttl)
        assert made == IPDatagram(
            src, dst, PROTO_UDP, UDPDatagram(1, 2, payload), ttl, made.uid
        )
        assert made._replace(uid=uid) == IPDatagram(
            src, dst, PROTO_UDP, UDPDatagram(1, 2, payload), ttl, uid
        )
        assert made.is_multicast is dst.is_multicast

    def test_default_ttl(self):
        assert IPDatagram(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"").ttl == DEFAULT_TTL

    def test_size_accounts_for_headers(self):
        plain = IPDatagram(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"")
        udp = make_udp(SRC, DST, 1000, 2000, b"")
        assert udp.size_bytes() > 20  # IP + UDP headers at minimum
        assert plain.size_bytes() >= 20

    def test_size_of_nested_ip(self):
        inner = IPDatagram(src=SRC, dst=GROUP, proto=PROTO_UDP, payload=b"")
        outer = IPDatagram(src=SRC, dst=DST, proto=4, payload=inner)
        assert outer.size_bytes() == 20 + inner.size_bytes()


class TestUDPDatagram:
    def test_valid_ports(self):
        UDPDatagram(sport=1, dport=65535, payload=None)

    @pytest.mark.parametrize("sport,dport", [(0, 80), (80, 0), (70000, 80)])
    def test_invalid_ports_rejected(self, sport, dport):
        with pytest.raises(ValueError):
            UDPDatagram(sport=sport, dport=dport, payload=None)


class TestMakeUdp:
    def test_builds_udp_in_ip(self):
        d = make_udp(SRC, DST, 7777, 7777, payload="x")
        assert d.proto == PROTO_UDP
        assert isinstance(d.payload, UDPDatagram)
        assert d.payload.payload == "x"

    def test_each_datagram_gets_a_fresh_uid(self):
        a, b = (make_udp(SRC, DST, 7777, 7777, payload=None) for _ in range(2))
        assert a.uid != b.uid
