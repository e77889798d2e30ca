"""E18 — the spec's own -02 -> -03 evolution, measured.

The provided paper text is the *diff* between the June-1995 (-02) and
November-1995 (-03) drafts; its authors' note claims the revision
eliminated six message types and that the new querier-based DR
election "ensures group join latency is kept to a minimum".  This
benchmark reproduces that self-comparison: the same host joins the
same group on the same topology under both procedures, and we measure
host-observed join latency and the control messages spent.
"""


from benchmarks.conftest import publish
from repro import CBTDomain, build_figure1, group_address
from repro.core.legacy import LegacyDRExtension, LegacyHostAgent
from repro.harness.experiment import Experiment
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS

GROUP = group_address(0)


def legacy_join(host_name: str) -> tuple:
    net = build_figure1()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    extensions = {
        name: LegacyDRExtension(protocol)
        for name, protocol in domain.protocols.items()
    }
    agent = LegacyHostAgent(
        net.host(host_name), igmp_agent=domain.agent(host_name)
    )
    domain.start()
    net.run(until=3.0)
    cores = (net.router("R4").primary_address,)
    control_before = domain.control_messages_sent()
    agent.join(GROUP, cores)
    net.run(until=net.scheduler.now + 8.0)
    assert agent.is_complete(GROUP), f"legacy join of {host_name} never completed"
    latency = agent.join_latency(GROUP)
    handshake = agent.messages_sent + sum(
        e.messages_sent for e in extensions.values()
    )
    tree_building = domain.control_messages_sent() - control_before
    return latency, handshake + tree_building


def modern_join(host_name: str) -> tuple:
    net = build_figure1()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    domain.create_group(GROUP, cores=["R4"])
    domain.start()
    net.run(until=3.0)
    control_before = domain.control_messages_sent()
    start = net.scheduler.now
    domain.join_host(host_name, GROUP)
    net.run(until=start + 8.0)
    joined = [
        event
        for event in domain.telemetry.bus.records("protocol")
        if event.kind in ("joined", "proxied") and event.time >= start
    ]
    assert joined, f"modern join of {host_name} never completed"
    # -03 proposes an IGMP notification to the host once the DR is on
    # the tree; one LAN delay approximates it.
    latency = min(e.time for e in joined) - start + 0.001
    # IGMP messages of the join: core report + membership report.
    tree_building = domain.control_messages_sent() - control_before + 2
    return latency, tree_building


def run_experiment() -> Experiment:
    exp = Experiment(
        exp_id="E18",
        title="Join procedure: draft-02 (host handshake) vs draft-03 (querier DR)",
        paper_expectation=(
            "the -03 authors' note: six message types eliminated, join "
            "latency 'kept to a minimum' — the -02 handshake pays the "
            "solicitation/advertisement round plus its deliberate "
            "sub-second advertisement delay"
        ),
    )
    rows = []
    for host, lan in (("A", "S1 (single router)"), ("B", "S4 (three routers)")):
        legacy_latency, legacy_messages = legacy_join(host)
        modern_latency, modern_messages = modern_join(host)
        rows.append(
            (
                host,
                lan,
                round(legacy_latency * 1000, 1),
                legacy_messages,
                round(modern_latency * 1000, 1),
                modern_messages,
                round(legacy_latency / modern_latency, 1),
            )
        )
    exp.run_sweep(
        [
            "host",
            "LAN",
            "-02 latency ms",
            "-02 msgs",
            "-03 latency ms",
            "-03 msgs",
            "speedup",
        ],
        rows,
    )
    return exp


def test_legacy_vs_modern_join(benchmark):
    exp = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    publish("E18_legacy_join", exp.report())
    for host, lan, legacy_ms, legacy_msgs, modern_ms, modern_msgs, speedup in exp.result.rows:
        assert modern_ms < legacy_ms  # the -03 claim
        assert modern_msgs < legacy_msgs  # message types eliminated
