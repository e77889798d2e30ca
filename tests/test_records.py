"""Every per-packet record against the frozen dataclass it replaced.

Packets, messages and trace records are tuple-backed
(:class:`repro.netsim.packet.Record`): one ``tuple.__new__`` per
object instead of one ``object.__setattr__`` per field
(docs/PERFORMANCE.md, "Decision record: packets are tuple records").
What a caller can observe must not have moved, so the old classes are
kept verbatim in ``tests/reference_records.py`` and every record class
is held to them here: the same ``repr`` text, the same ``==`` / ``hash``
outcomes, the same ``ValueError`` for the same arguments — plus what a
tuple could get wrong where a dataclass could not (equality across
classes and with bare tuples, truthiness of a fieldless record) and
what the harness relies on (pickling, deep copies, immutability).
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.app import AppPayload
from repro.baselines import dvmrp, hpimdm
from repro.core import legacy, messages as cbt_messages
from repro.core.constants import MessageType
from repro.igmp import messages as igmp_messages
from repro.netsim import packet, trace
from repro.netsim.address import IPv4Address
from repro.netsim.packet import IPDatagram, Record
from tests import reference_records as reference

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
core_lists = st.lists(addresses, max_size=7).map(tuple)
small = st.integers(min_value=-2, max_value=300)
words = st.integers(min_value=-1, max_value=2**32 + 1)
reals = st.floats(allow_nan=False, allow_infinity=False, width=32)
names = st.text(alphabet="abcRS_19", max_size=4)
payloads = st.one_of(st.none(), st.binary(max_size=4), names, addresses)

#: Record class name -> field name -> values to try, invalid ones included.
FIELDS = {
    "UDPDatagram": dict(
        sport=st.integers(-1, 70000), dport=st.integers(-1, 70000), payload=payloads
    ),
    "IPDatagram": dict(
        src=addresses, dst=addresses, proto=st.sampled_from([2, 4, 7, 17, 99]),
        payload=payloads, ttl=small, uid=st.integers(1, 2**40),
    ),
    "TraceRecord": dict(
        time=reals, kind=st.sampled_from(["tx", "rx", "drop"]), link_name=names,
        node_name=names, datagram=payloads, note=names,
    ),
    "MembershipQuery": dict(group=st.none() | addresses, max_response_time=reals),
    "MembershipReport": dict(group=addresses),
    "Leave": dict(group=addresses),
    "CoreReport": dict(
        group=addresses, cores=core_lists, target_core=st.integers(-1, 8),
        code=st.integers(0, 1), version=st.integers(0, 15),
    ),
    "CBTControlMessage": dict(
        msg_type=st.sampled_from(list(MessageType)), code=small, group=addresses,
        origin=addresses, target_core=addresses, cores=core_lists,
        aggregate=st.booleans(), group_mask=st.none() | addresses,
        version=st.integers(0, 15),
    ),
    "CBTDataPacket": dict(
        group=addresses, core=addresses, origin=addresses, inner=payloads,
        on_tree=st.sampled_from([0x00, 0xFF, 0x01, 0x7F]), ip_ttl=small,
        flow_id=words, version=st.integers(0, 15),
    ),
    "Probe": dict(),
    "Prune": dict(source=addresses, group=addresses, lifetime=reals),
    "Graft": dict(source=addresses, group=addresses),
    "HpimHello": dict(gen_id=words),
    "HpimAssert": dict(source=addresses, group=addresses, metric=reals, seq=words),
    "HpimInterest": dict(
        source=addresses, group=addresses, interested=st.booleans(), seq=words
    ),
    "HpimAck": dict(
        source=addresses, group=addresses,
        kind=st.sampled_from(["assert", "interest"]), seq=words,
    ),
    "CoreNotification": dict(group=addresses, cores=core_lists),
    "CoreNotificationAck": dict(group=addresses, core=addresses),
    "DRSolicitation": dict(group=addresses, core=addresses),
    "DRAdvNotification": dict(group=addresses, core=addresses),
    "DRAdvertisement": dict(group=addresses, dr_address=addresses),
    "TagReport": dict(group=addresses, core=addresses, cores=core_lists),
    "HostJoinAck": dict(group=addresses, core=addresses),
}

_MODULES = (packet, trace, igmp_messages, cbt_messages, dvmrp, hpimdm, legacy)

#: Record class name -> (live class, reference dataclass).
RECORDS = {
    name: (
        next(getattr(m, name) for m in _MODULES if hasattr(m, name)),
        getattr(reference, name),
    )
    for name in FIELDS
}


def test_every_record_class_is_covered():
    live = {
        cls.__name__
        for module in _MODULES
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record
    }
    assert live == set(FIELDS)
    for name, (cls, ref) in RECORDS.items():
        assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
        assert cls._fields == tuple(f.name for f in dataclasses.fields(ref) if f.init)
        assert not hasattr(cls(**_example(name)), "__dict__")


def _optional(ref):
    """Fields the reference lets a caller leave out (``uid`` stays: its
    default draws from a counter the two classes do not share)."""
    return {
        f.name
        for f in dataclasses.fields(ref)
        if f.init and f.name != "uid" and f.default is not dataclasses.MISSING
    }


@st.composite
def arguments(draw, name):
    """Keyword arguments for record ``name``, defaults sometimes left out."""
    values = {field: draw(values) for field, values in FIELDS[name].items()}
    for field in sorted(_optional(RECORDS[name][1])):
        if draw(st.booleans()):
            del values[field]
    return values


def _accepts(cls, kwargs):
    try:
        cls(**kwargs)
    except ValueError:
        return False
    return True


def _build(cls, kwargs):
    """``(record, None)`` or ``(None, "ValueError text")``."""
    try:
        return cls(**kwargs), None
    except ValueError as error:
        return None, str(error)


_ADDRESS = IPv4Address("10.0.0.9")

#: A value the reference accepts, by field name (an address otherwise).
_VALID = dict(
    sport=1, dport=2, proto=17, payload=b"x", inner=b"x", datagram=None, ttl=3,
    ip_ttl=3, uid=9, time=1.5, kind="tx", link_name="S1", node_name="R1", note="",
    group=IPv4Address("239.0.0.1"), cores=(_ADDRESS,), max_response_time=1.0,
    code=0, version=1, msg_type=MessageType.HELLO, aggregate=False, group_mask=None,
    on_tree=0, flow_id=0, lifetime=2.0, metric=1.0, seq=4, gen_id=7, interested=True,
)


def _example(name):
    """Valid arguments for every field of record ``name``."""
    example = {field: _VALID.get(field, _ADDRESS) for field in FIELDS[name]}
    if name == "CoreReport":
        example["target_core"] = 0  # an index there, an address elsewhere
    return example


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_examples_are_valid(name):
    cls, ref = RECORDS[name]
    assert repr(cls(**_example(name))) == repr(ref(**_example(name)))


# -- the reference's repr, ==, hash and ValueErrors ---------------------------------


@pytest.mark.parametrize("name", sorted(FIELDS))
@given(data=st.data())
def test_same_repr_and_same_rejections_as_the_dataclass(name, data):
    cls, ref = RECORDS[name]
    kwargs = data.draw(arguments(name))
    expected, rejection = _build(ref, kwargs)
    record, raised = _build(cls, kwargs)
    assert raised == rejection
    if rejection is None:
        assert repr(record) == repr(expected)
        assert str(record) == str(expected)
        if tuple(kwargs) == cls._fields[: len(kwargs)]:  # nothing skipped
            assert record == cls(*kwargs.values())  # positional, same order
        for field, value in kwargs.items():
            assert getattr(record, field) is value


@pytest.mark.parametrize("name", sorted(FIELDS))
@given(data=st.data())
def test_same_equality_and_hash_outcomes_as_the_dataclass(name, data):
    cls, ref = RECORDS[name]
    valid = arguments(name).filter(lambda kw: _accepts(ref, kw))
    first = data.draw(valid)
    second = data.draw(st.one_of(st.just(first), valid))
    if FIELDS[name] and data.draw(st.booleans()):
        field = data.draw(st.sampled_from(sorted(FIELDS[name])))
        second = {**first, field: data.draw(FIELDS[name][field])}
        if not _accepts(ref, second):
            second = first
    a, b = cls(**first), cls(**second)
    ref_a, ref_b = ref(**first), ref(**second)
    assert (a == b) is (ref_a == ref_b)
    assert (a != b) is (ref_a != ref_b)
    assert (hash(a) == hash(b)) is (hash(ref_a) == hash(ref_b))
    assert a == a and not a != a


def test_multicast_flag_is_in_neither_repr_nor_arguments():
    datagram = IPDatagram(**_example("IPDatagram"))
    assert datagram.is_multicast is False
    assert "is_multicast" not in repr(datagram)
    assert "is_multicast" not in IPDatagram._fields
    with pytest.raises(TypeError):
        IPDatagram(**_example("IPDatagram"), is_multicast=False)


# -- what a tuple could get wrong where a dataclass could not ------------------------


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_a_record_never_equals_a_bare_tuple_or_another_class(name):
    cls, _ = RECORDS[name]
    record = cls(**_example(name))
    bare = tuple(record)
    assert record != bare and bare != record
    assert not record == bare and not bare == record
    assert record not in [bare] and bare not in [record]
    for other_name, (other, _) in RECORDS.items():
        if other is not cls and len(other._fields) == len(cls._fields):
            twin = tuple.__new__(other, bare)  # the same storage, another class
            assert record != twin and twin != record
            assert not record == twin and len({record, twin}) == 2


def test_same_fields_different_class():
    group = IPv4Address("239.0.0.1")
    assert igmp_messages.MembershipReport(group) != igmp_messages.Leave(group)
    assert legacy.DRSolicitation(group, group) != legacy.HostJoinAck(group, group)
    assert dvmrp.Graft(group, group) != legacy.HostJoinAck(group, group)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_records_are_truthy_even_without_fields(name):
    cls, _ = RECORDS[name]
    record = cls(**_example(name))
    assert record
    assert bool(record) is True


# -- immutable at run time ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_assignment_and_deletion_raise(name):
    cls, ref = RECORDS[name]
    record, expected = cls(**_example(name)), ref(**_example(name))
    for field in list(cls._fields) + ["brand_new", "is_multicast", "wire_size"]:
        for target in (record, expected):  # the dataclass raised the same type
            with pytest.raises(AttributeError):
                setattr(target, field, 1)
            with pytest.raises(AttributeError):
                delattr(target, field)
    with pytest.raises(TypeError):
        record[0] = 1


# -- pickling, copying, replacing -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIELDS))
@given(data=st.data())
def test_pickle_and_deepcopy_round_trip(name, data):
    cls, ref = RECORDS[name]
    record = cls(**data.draw(arguments(name).filter(lambda kw: _accepts(ref, kw))))
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is cls and clone == record and repr(clone) == repr(record)
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)


@given(
    dst=addresses, other=addresses, ttl=st.integers(1, 255), uid=st.integers(1, 2**40)
)
def test_every_copy_recomputes_the_multicast_flag(dst, other, ttl, uid):
    datagram = IPDatagram(IPv4Address("10.0.0.1"), dst, 17, b"", ttl, uid)
    same = [
        datagram.decremented(),
        datagram.with_ttl(1),
        datagram._replace(ttl=9),
        copy.copy(datagram),
        copy.deepcopy(datagram),
        pickle.loads(pickle.dumps(datagram)),
    ]
    assert [c.is_multicast for c in same] == [dst.is_multicast] * len(same)
    assert all(c.uid == uid for c in same)
    assert datagram._replace(dst=other).is_multicast is other.is_multicast
    # A forged flag does not survive a copy either.
    forged = tuple.__new__(
        IPDatagram, datagram[:6] + (not dst.is_multicast, datagram.wire_size)
    )
    assert forged == datagram and hash(forged) == hash(datagram)
    for clone in (forged.decremented(), forged._replace(), copy.copy(forged)):
        assert clone.is_multicast is dst.is_multicast


@pytest.mark.parametrize("name", sorted(FIELDS))
@given(data=st.data())
def test_replace_goes_through_the_constructor(name, data):
    cls, ref = RECORDS[name]
    valid = arguments(name).filter(lambda kw: _accepts(ref, kw))
    kwargs = data.draw(valid)
    record, expected = cls(**kwargs), ref(**kwargs)
    assert record._replace() == record
    if not FIELDS[name]:
        return
    field = data.draw(st.sampled_from(sorted(FIELDS[name])))
    value = data.draw(FIELDS[name][field])
    try:
        replaced = dataclasses.replace(expected, **{field: value})
    except ValueError as error:
        with pytest.raises(ValueError) as caught:
            record._replace(**{field: value})
        assert str(caught.value) == str(error)
    else:
        assert repr(record._replace(**{field: value})) == repr(replaced)
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


# -- the carried wire size ------------------------------------------------------------

#: Records a datagram carries as a message: CBT control, IGMP, DVMRP,
#: HPIM-DM and the draft-02 legacy messages.
_MESSAGES = sorted(
    set(FIELDS) - {"UDPDatagram", "IPDatagram", "TraceRecord", "CBTDataPacket"}
)


@st.composite
def _carried(draw, depth):
    """A payload of every kind the simulator sends; a CBT data packet
    and an IP-in-IP datagram nest a datagram of their own."""
    kinds = ["bytes", "nominal", "message", "app"]
    kind = draw(st.sampled_from(kinds + (["cbt_data", "ipip"] if depth < 2 else [])))
    if kind == "bytes":
        return draw(st.binary(max_size=600))
    if kind == "nominal":  # no size of its own: counted as 512 bytes
        return draw(st.sampled_from([None, "text", _ADDRESS, 3.5, ("a", 1)]))
    if kind == "message":
        name = draw(st.sampled_from(_MESSAGES))
        cls, ref = RECORDS[name]
        return cls(**draw(arguments(name).filter(lambda kw: _accepts(ref, kw))))
    if kind == "app":
        return AppPayload("s", draw(small), 0.5, draw(st.integers(0, 1500)))
    inner = draw(_datagrams(depth + 1))
    if kind == "ipip":
        return inner
    return cbt_messages.CBTDataPacket(
        inner.dst, _ADDRESS, inner.src, inner,
        draw(st.sampled_from([0x00, 0xFF])), draw(st.integers(0, 255)),
    )


@st.composite
def _datagrams(draw, depth=0):
    payload = draw(_carried(depth))
    if draw(st.booleans()):
        payload = packet.UDPDatagram(5000, draw(st.integers(1, 0xFFFF)), payload)
    return IPDatagram(
        draw(addresses), draw(addresses), draw(st.sampled_from([2, 4, 7, 17])),
        payload, draw(st.integers(0, 255)),
    )


def _copies(record):
    """Every way a record is copied: by the constructor and past it."""
    copies = [
        record._replace(),
        copy.copy(record),
        copy.deepcopy(record),
        *(
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
        ),
    ]
    if isinstance(record, IPDatagram):
        ttl = record.ttl
        copies += [record.with_ttl(0), record.with_ttl(255)]
    else:
        ttl = record.ip_ttl
        copies.append(record.marked_on_tree())
    if ttl:
        copies.append(record.decremented())
    return copies


@given(datagram=_datagrams(), other=_carried(0))
def test_the_carried_wire_size_is_the_recursive_size(datagram, other):
    """``wire_size`` is derived once, by the constructor, and every copy
    carries or re-derives the size the recursive sizing computes."""
    expected = reference.size_bytes(datagram)
    records = [datagram] + _copies(datagram)
    assert [r.wire_size for r in records] == [expected] * len(records)
    assert [r.size_bytes() for r in records] == [expected] * len(records)
    payload = datagram.payload
    if isinstance(payload, cbt_messages.CBTDataPacket):
        records = [payload] + _copies(payload)
        expected = reference.size_bytes(payload)
        assert [r.wire_size for r in records] == [expected] * len(records)
    replaced = datagram._replace(payload=other)
    assert replaced.wire_size == reference.size_bytes(replaced)
