"""Deterministic workload experiment cells (CI unit kind ``workload``).

Two cell families, both derived entirely from ``(topology, seed)``:

* :func:`run_flash_crowd_cell` — the bootcast flash crowd on the
  n=1000 bulk topology: a ramped arrival burst onto one cast,
  mid-stream joins receiving ongoing segments, leave on completion,
  teardown when drained.  The cell audits exactly-once delivery for
  every (client, segment) pair inside the client's stable membership
  window, runs the invariant auditor throughout, checks the
  conservation laws at the mid-burst and drain snapshots, and samples
  the quality probe against the modeled DVMRP/MOSPF baselines.
* :func:`run_churn_cell` — Poisson or self-similar (Pareto on/off)
  session churn over every host of a small topology, under the same
  auditor/probe/conservation regime, quiesced campaign-style at the
  end.

Fingerprints contain only sim-deterministic quantities (event counts,
membership totals, rounded probe samples, finding texts) so merged CI
fingerprints are byte-identical for any worker count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.audit import InvariantViolation
from repro.core.timers import CBTTimers
from repro.harness.campaign import LEGS, TOPOLOGIES, CellResult, run_to_quiescence
from repro.harness.scenarios import FAST_TIMERS, pick_members
from repro.harness.workload import ChurnSchedule
from repro.netsim.engine import cell
from repro.netsim.faults import derive_seed
from repro.telemetry.conservation import check_conservation
from repro.workloads.flashcrowd import FlashCrowdConfig, generate_flash_crowd
from repro.workloads.probe import QualityProbe
from repro.workloads.processes import pareto_onoff_churn, poisson_churn

#: The workload kinds the CI executor and CLI accept.
WORKLOADS = ("flash-crowd", "poisson", "pareto")

#: Topologies a workload cell can run on: the campaign catalogue plus
#: the n=1000 bulk Waxman used by the scale benches (alpha scaled down
#: to keep router degree realistic — see benchmarks/bench_scale.py).
WORKLOAD_TOPOLOGIES = tuple(sorted(TOPOLOGIES)) + ("bulk1000",)

#: Delivery-audit margins (sim s): a segment counts as *expected* for
#: a client only when sent at least ``JOIN_MARGIN`` after the client's
#: arrival (join establishment: IGMP report, hop-by-hop JOIN, ACK)
#: and at least ``LEAVE_MARGIN`` before its leave (in-flight segments
#: are not recorded once the host's IGMP state is gone).
JOIN_MARGIN = 1.5
LEAVE_MARGIN = 0.5


def _build_topology(name: str, seed: int):
    """``(network, host pool, cores)`` for a workload topology."""
    if name == "bulk1000":
        from repro.topology.generators import waxman_network

        network = waxman_network(
            1000, alpha=0.02, seed=derive_seed(seed, "bulk1000")
        )
        by_degree = sorted(
            network.routers,
            key=lambda n: (-len(network.routers[n].interfaces), n),
        )
        return network, sorted(network.hosts), by_degree[:1]
    if name in TOPOLOGIES:
        network, _members, cores = TOPOLOGIES[name].build(seed)
        return network, sorted(network.hosts), cores
    raise KeyError(
        f"unknown workload topology {name!r}; "
        f"known: {', '.join(WORKLOAD_TOPOLOGIES)}"
    )


def _schedule_membership(network, domain, group, schedule, probe) -> None:
    """Schedule every join/leave, keeping the probe's books in step."""
    for event in schedule.events:
        action = _member_join if event.action == "join" else _member_leave
        network.scheduler.call_at(
            event.time, action, probe, domain, event.host, group
        )


def _member_join(probe, domain, host: str, group) -> None:
    probe.note_join(host)
    domain.join_host(host, group)


def _member_leave(probe, domain, host: str, group) -> None:
    probe.note_leave(host)
    domain.leave_host(host, group)


def _make_segment_sender(network, source_host: str, group, sent, probe):
    """Closure originating one content segment from the cast source."""
    from repro.netsim.packet import IPDatagram, PROTO_UDP, UDPDatagram

    host = network.host(source_host)

    def send() -> None:
        datagram = IPDatagram(
            src=host.interface.address,
            dst=group,
            proto=PROTO_UDP,
            payload=UDPDatagram(sport=40000, dport=5000, payload=b"x" * 64),
            ttl=64,
        )
        sent.append((network.scheduler.now, datagram.uid))
        probe.note_first_transmit()
        host.originate(datagram)

    return send


@dataclass
class FlashCrowdCellResult(CellResult):
    """Outcome of one flash-crowd cell."""

    ci_name = "workload"

    topology: str
    seed: int
    quick: bool
    clients: int
    source: str
    joins: int
    leaves: int
    segments: int
    #: (client, segment) pairs inside the stable membership windows.
    expected_pairs: int
    delivered_pairs: int
    #: Pairs (any window) where a client saw the same segment twice.
    duplicate_pairs: int
    #: ``delivered / expected`` — 1.0 means every stably joined member
    #: received every segment exactly once.
    continuity: float
    join_p50: float
    join_p95: float
    join_p99: float
    control_cbt: int
    control_dvmrp_model: int
    control_mospf_model: int
    #: On-tree routers after teardown (must shrink to the cores).
    final_on_tree: int
    cores: int
    recovered: bool
    drained: bool
    sim_events: int
    #: Conservation/invariant findings at the named snapshots.
    snapshots: Dict[str, List[str]] = field(default_factory=dict)
    #: Clients that missed an expected segment, ``(host, send time)``.
    missing: List[Tuple[str, float]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    sample_fingerprints: Tuple = ()

    def findings(self) -> List[str]:
        """Beyond the audit: an undrained tree, snapshot findings, and
        duplicate or missed deliveries."""
        lines = self._audit_findings(
            f"recovered={self.recovered} drained={self.drained}",
            self.recovered and self.drained,
        )
        lines += [
            f"{name} snapshot: {line}"
            for name, found in sorted(self.snapshots.items())
            for line in found[:5]
        ]
        if self.duplicate_pairs:
            lines.append(f"duplicate deliveries: {self.duplicate_pairs} pairs")
        return lines + [
            f"missed segment: {host} @ t={at}" for host, at in self.missing[:10]
        ]

    @property
    def telemetry(self) -> Dict[str, float]:
        """Aggregates only: the n=1000 cell deliberately does not fold
        its per-router telemetry snapshot into CI metrics."""
        return _cell_metrics("flash-crowd", self.sim_events)

    def fingerprint(self) -> Tuple:
        return (
            self.topology,
            self.seed,
            self.quick,
            self.clients,
            self.source,
            self.joins,
            self.leaves,
            self.segments,
            self.expected_pairs,
            self.delivered_pairs,
            self.duplicate_pairs,
            round(self.continuity, 6),
            round(self.join_p50, 6),
            round(self.join_p95, 6),
            round(self.join_p99, 6),
            self.control_cbt,
            self.control_dvmrp_model,
            self.control_mospf_model,
            self.final_on_tree,
            self.recovered,
            self.drained,
            self.sim_events,
            tuple(sorted((k, tuple(v)) for k, v in self.snapshots.items())),
            tuple(self.missing),
            tuple(self.violations),
            self.sample_fingerprints,
        )


def run_flash_crowd_cell(
    topology: str = "bulk1000",
    seed: int = 0,
    quick: bool = False,
    clients: Optional[int] = None,
    probe_interval: float = 2.0,
    timers: CBTTimers = FAST_TIMERS,
) -> FlashCrowdCellResult:
    """One bootcast flash crowd under the full audit regime."""
    cell_seed = derive_seed(seed, "workload", "flash-crowd", topology)
    with cell(_build_topology, topology, cell_seed) as (network, pool, cores):
        n_clients = clients if clients is not None else (32 if quick else 160)
        if n_clients + 1 > len(pool):
            n_clients = len(pool) - 1
        config = FlashCrowdConfig(
            ramp=3.0 if quick else 8.0,
            hold=5.0 if quick else 10.0,
            segment_spacing=0.5,
            seed=derive_seed(cell_seed, "crowd"),
        )
        picked = pick_members(
            network, n_clients + 1, seed=derive_seed(cell_seed, "clients")
        )
        source, client_hosts = picked[0], picked[1:]

        cbt = LEGS["cbt"]
        domain, group = cbt.build(network, [], cores, timers)
        probe = QualityProbe(
            domain, group, source_host=source, interval=probe_interval
        )
        probe.start()

        start = network.scheduler.now + 0.5
        crowd = generate_flash_crowd(client_hosts, config, start=start)
        _schedule_membership(network, domain, group, crowd.schedule, probe)
        sent: List[Tuple[float, int]] = []
        sender = _make_segment_sender(network, source, group, sent, probe)
        for at in crowd.segments:
            network.scheduler.call_at(at, sender)

        snapshots: Dict[str, List[str]] = {}
        violations: List[str] = []
        recovered = False
        try:
            # Mid-burst snapshot: the conservation laws are valid at any
            # instant (the invariant sweep is not — joins are in flight,
            # and the always-on auditor already covers it with its grace
            # window), so only they are checked here.
            network.run(until=crowd.mid_burst_time)
            snapshots["mid-burst"] = list(check_conservation(network, domain))
            network.run(until=crowd.drain_time)
            recovered, _ = run_to_quiescence(cbt, domain, network.scheduler.now, timers)
            if recovered:
                # Drain snapshot: quiesced, so the full sweep applies.
                snapshots["drain"] = cbt.findings(domain) + list(
                    check_conservation(network, domain)
                )
        except InvariantViolation as violation:
            violations = [str(f) for f in violation.findings]
        probe.stop()
        domain.auditor.stop()

        expected_pairs = delivered_pairs = duplicate_pairs = 0
        missing: List[Tuple[str, float]] = []
        for host, (arrival, leave) in sorted(crowd.sessions.items()):
            counts = Counter(d.uid for d in network.host(host).delivered)
            for sent_at, uid in sent:
                copies = counts.get(uid, 0)
                if copies > 1:
                    duplicate_pairs += 1
                if arrival + JOIN_MARGIN <= sent_at <= leave - LEAVE_MARGIN:
                    expected_pairs += 1
                    if copies >= 1:
                        delivered_pairs += 1
                    else:
                        missing.append((host, round(sent_at, 6)))

        on_tree = len(domain.on_tree_routers(group))
        drained = recovered and not probe.members and on_tree <= len(cores)
        last = probe.samples[-1] if probe.samples else None
        return FlashCrowdCellResult(
            topology=topology,
            seed=seed,
            quick=quick,
            clients=len(client_hosts),
            source=source,
            joins=crowd.schedule.joins,
            leaves=crowd.schedule.leaves,
            segments=len(sent),
            expected_pairs=expected_pairs,
            delivered_pairs=delivered_pairs,
            duplicate_pairs=duplicate_pairs,
            continuity=(
                delivered_pairs / expected_pairs if expected_pairs else 1.0
            ),
            join_p50=last.join_p50 if last else 0.0,
            join_p95=last.join_p95 if last else 0.0,
            join_p99=last.join_p99 if last else 0.0,
            control_cbt=domain.control_messages_sent(),
            control_dvmrp_model=(
                last.control_dvmrp_model if last else 0
            ),
            control_mospf_model=(
                last.control_mospf_model if last else 0
            ),
            final_on_tree=on_tree,
            cores=len(cores),
            recovered=recovered,
            drained=drained,
            sim_events=network.scheduler.events_processed,
            snapshots=snapshots,
            missing=missing,
            violations=violations,
            sample_fingerprints=tuple(s.fingerprint() for s in probe.samples),
        )


@dataclass
class ChurnCellResult(CellResult):
    """Outcome of one churn-process cell."""

    ci_name = "workload"

    topology: str
    process: str
    seed: int
    quick: bool
    hosts: int
    joins: int
    leaves: int
    control_cbt: int
    control_dvmrp_model: int
    control_mospf_model: int
    join_p95: float
    recovered: bool
    sim_events: int
    final_findings: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    sample_fingerprints: Tuple = ()

    def findings(self) -> List[str]:
        """Beyond the audit: end-of-run invariant/conservation findings."""
        return self._audit_findings("recovered=False", self.recovered) + [
            f"finding: {line}" for line in self.final_findings[:5]
        ]

    @property
    def telemetry(self) -> Dict[str, float]:
        return _cell_metrics(self.process, self.sim_events)

    def fingerprint(self) -> Tuple:
        return (
            self.topology,
            self.process,
            self.seed,
            self.quick,
            self.hosts,
            self.joins,
            self.leaves,
            self.control_cbt,
            self.control_dvmrp_model,
            self.control_mospf_model,
            round(self.join_p95, 6),
            self.recovered,
            self.sim_events,
            tuple(self.final_findings),
            tuple(self.violations),
            self.sample_fingerprints,
        )


def run_churn_cell(
    process: str,
    topology: str = "waxman16",
    seed: int = 0,
    quick: bool = False,
    probe_interval: float = 2.0,
    timers: CBTTimers = FAST_TIMERS,
) -> ChurnCellResult:
    """Session churn (Poisson or Pareto on/off) under the audit regime."""
    if process not in ("poisson", "pareto"):
        raise KeyError(
            f"unknown churn process {process!r}; known: poisson, pareto"
        )
    cell_seed = derive_seed(seed, "workload", process, topology)
    with cell(_build_topology, topology, cell_seed) as (network, pool, cores):
        source, churners = pool[0], pool[1:]
        duration = 30.0 if quick else 90.0

        cbt = LEGS["cbt"]
        domain, group = cbt.build(network, [], cores, timers)
        probe = QualityProbe(
            domain, group, source_host=source, interval=probe_interval
        )
        probe.start()

        start = network.scheduler.now + 0.5
        generate = poisson_churn if process == "poisson" else pareto_onoff_churn
        schedule: ChurnSchedule = generate(
            churners,
            duration,
            mean_off=6.0,
            mean_hold=10.0,
            seed=derive_seed(cell_seed, "schedule"),
            start=start,
        )
        _schedule_membership(network, domain, group, schedule, probe)
        sent: List[Tuple[float, int]] = []
        sender = _make_segment_sender(network, source, group, sent, probe)
        at = start
        while at < start + duration:
            network.scheduler.call_at(at, sender)
            at += 2.0

        violations: List[str] = []
        recovered = False
        final_findings: List[str] = []
        try:
            network.run(until=start + duration)
            recovered, _ = run_to_quiescence(cbt, domain, network.scheduler.now, timers)
            if recovered:
                final_findings = cbt.findings(domain) + list(
                    check_conservation(network, domain)
                )
        except InvariantViolation as violation:
            violations = [str(f) for f in violation.findings]
        probe.stop()
        domain.auditor.stop()

        last = probe.samples[-1] if probe.samples else None
        return ChurnCellResult(
            topology=topology,
            process=process,
            seed=seed,
            quick=quick,
            hosts=len(churners),
            joins=schedule.joins,
            leaves=schedule.leaves,
            control_cbt=domain.control_messages_sent(),
            control_dvmrp_model=last.control_dvmrp_model if last else 0,
            control_mospf_model=last.control_mospf_model if last else 0,
            join_p95=last.join_p95 if last else 0.0,
            recovered=recovered,
            sim_events=network.scheduler.events_processed,
            final_findings=final_findings,
            violations=violations,
            sample_fingerprints=tuple(s.fingerprint() for s in probe.samples),
        )


def _cell_metrics(kind: str, sim_events: int) -> Dict[str, float]:
    return {
        f"ci.workload.{kind}.sim_events": sim_events,
        f"ci.workload.{kind}.cells": 1,
    }


def run_workload_cell(
    workload: str,
    topology: Optional[str] = None,
    seed: int = 0,
    quick: bool = False,
):
    """Dispatch for the CI executor and the CLI verb."""
    if workload == "flash-crowd":
        return run_flash_crowd_cell(
            topology=topology or "bulk1000", seed=seed, quick=quick
        )
    if workload in ("poisson", "pareto"):
        return run_churn_cell(
            workload, topology=topology or "waxman16", seed=seed, quick=quick
        )
    raise KeyError(
        f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}"
    )
