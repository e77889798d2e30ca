"""E9 — packet codec throughput and byte-accuracy census (spec §8).

Times the byte-level encode/decode paths of the control header
(Figure 8), the data header (Figure 7), and the IGMP RP/Core-Report
(Figure 10), and verifies the fixed sizes the spec's layouts imply.
"""

from benchmarks.conftest import publish
from repro.core.constants import JoinSubcode, MessageType
from repro.core.messages import (
    CBTControlMessage,
    CBTDataPacket,
    CONTROL_HEADER_SIZE,
    DATA_HEADER_SIZE,
    decode_control,
    decode_data_header,
)
from repro.harness.formatting import format_table
from repro.igmp.messages import CoreReport, decode_igmp
from repro.netsim.address import IPv4Address

GROUP = IPv4Address("239.1.2.3")
CORES = (IPv4Address("10.0.0.1"), IPv4Address("10.0.1.1"), IPv4Address("10.0.2.1"))

JOIN = CBTControlMessage(
    msg_type=MessageType.JOIN_REQUEST,
    code=int(JoinSubcode.ACTIVE_JOIN),
    group=GROUP,
    origin=IPv4Address("10.1.0.1"),
    target_core=CORES[0],
    cores=CORES,
)
DATA = CBTDataPacket(
    group=GROUP,
    core=CORES[0],
    origin=IPv4Address("10.1.0.1"),
    inner=b"x" * 512,
    ip_ttl=32,
)
REPORT = CoreReport(group=GROUP, cores=CORES)


def control_roundtrip():
    return decode_control(JOIN.encode())


def data_roundtrip():
    return decode_data_header(DATA.encode())


def igmp_roundtrip():
    return decode_igmp(REPORT.encode())


def codec_census() -> str:
    rows = [
        ("CBT control header (Fig 8)", CONTROL_HEADER_SIZE, len(JOIN.encode())),
        ("CBT data header (Fig 7)", DATA_HEADER_SIZE, len(DATA.encode_header())),
        (
            "IGMP RP/Core-Report (Fig 10)",
            REPORT.size_bytes(),
            len(REPORT.encode()),
        ),
    ]
    return format_table(
        ["format", "declared bytes", "encoded bytes"],
        rows,
        title="E9: wire-format size census",
    )


def test_codec_sizes(benchmark):
    text = codec_census()
    publish("E9_codec", text)
    benchmark(control_roundtrip)
    assert len(JOIN.encode()) == CONTROL_HEADER_SIZE
    assert len(DATA.encode_header()) == DATA_HEADER_SIZE
    assert len(REPORT.encode()) == REPORT.size_bytes()


def test_control_roundtrip_throughput(benchmark):
    decoded = benchmark(control_roundtrip)
    assert decoded == JOIN


def test_data_roundtrip_throughput(benchmark):
    decoded = benchmark(data_roundtrip)
    assert decoded.group == DATA.group
    assert decoded.inner == DATA.inner


def test_igmp_roundtrip_throughput(benchmark):
    decoded = benchmark(igmp_roundtrip)
    assert decoded == REPORT
