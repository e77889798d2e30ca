"""Conservation laws over telemetry counters.

Every message the simulation creates must be accounted for exactly
once: delivered, dropped with a reason, or still in flight.  The
instrumentation layers (protocol counters in ``core``/``igmp``, wire
counters in ``netsim.link``, sink counters in ``routing``/``nic``)
count independently at different chokepoints, so these cross-layer
identities are real checks — a missed early-return or double-count in
any one layer breaks a law.

The functions return a list of human-readable violation strings
(empty = all laws hold).  They hold at *any* instant, not just at
quiescence: in-flight messages are computed from the counters
themselves (``sched - rx - late``), so tests can snapshot mid-run.

Everything here is duck-typed over registry names and families and,
for the FIB and membership laws, the attributes of the protocols they
are handed — this module imports nothing from the rest of ``repro``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Tuple, Union

from repro.telemetry.registry import MetricsRegistry

Number = Union[int, float]

#: CBT control types delivered to exactly one next hop, so per-type
#: protocol tx/rx obey strict flow conservation.  HELLO is multicast
#: (one tx fans out to every LAN neighbour) and is checked only on the
#: tx side.
UNICAST_CBT_TYPES = (
    "JOIN_REQUEST",
    "JOIN_ACK",
    "JOIN_NACK",
    "QUIT_REQUEST",
    "QUIT_ACK",
    "FLUSH_TREE",
    "ECHO_REQUEST",
    "ECHO_REPLY",
)

ALL_CBT_TYPES = UNICAST_CBT_TYPES + ("HELLO",)

#: payload label -> the IGMP agent statistics counting its protocol-level
#: sends, as (family head, metric): the families ``igmp.router.<name>.``
#: / ``igmp.host.<name>.`` register them.
IGMP_TX = {
    "MembershipQuery": (("igmp.router.", "tx.query"),),
    "MembershipReport": (("igmp.host.", "tx.report"),),
    "Leave": (("igmp.host.", "tx.leave"),),
    "CoreReport": (("igmp.host.", "tx.core_report"),),
}

#: The same for receipts (routers and hosts both hear queries).
IGMP_RX = {
    "MembershipQuery": (("igmp.router.", "rx.query"), ("igmp.host.", "rx.query")),
    "MembershipReport": (("igmp.router.", "rx.report"),),
    "Leave": (("igmp.router.", "rx.leave"),),
    "CoreReport": (("igmp.router.", "rx.core_report"),),
}

#: Drop reasons counted before anything touches the wire (in
#: ``Link.transmit``).
PRE_WIRE_REASONS = ("link_down", "gate", "loss", "no_host")

#: Drop reasons counted at node-level sinks before reaching any link.
NODE_REASONS = ("no_route", "ttl", "iface_down")

#: Drop reason for a scheduled delivery that found the link or the
#: receiving interface down on arrival.
LATE_REASON = "late"


def _msg_value(registry: MetricsRegistry, label: str, metric: str) -> Number:
    return registry.value(f"netsim.msg.{label}.{metric}")


def _msg_drops(registry: MetricsRegistry, label: str, reasons) -> Number:
    return sum(
        registry.value(f"netsim.msg.{label}.drop.{reason}") for reason in reasons
    )


def msg_in_flight(registry: MetricsRegistry, label: str) -> Number:
    """Delivery events scheduled but neither delivered nor late-dropped."""
    return (
        _msg_value(registry, label, "sched")
        - _msg_value(registry, label, "rx")
        - _msg_drops(registry, label, (LATE_REASON,))
    )


def _per_link(registry: MetricsRegistry, metric: str) -> Dict[str, Number]:
    """``netsim.link.<link>.`` -> value over the links that have the
    instrument ``netsim.link.<link>.<metric>`` (a drop counter exists
    only on a link that dropped for that reason)."""
    return {
        name[: -len(metric)]: value
        for name, value in registry.matching(f"netsim.link.*.{metric}").items()
    }


def link_conservation(registry: MetricsRegistry) -> List[str]:
    """Per link: every transmit attempt is a wire tx or a reasoned drop,
    and every scheduled delivery is delivered, late-dropped, or still
    in flight (never negative).  Each link's wire statistics are read
    from the link in one ``attrgetter`` call (:meth:`MetricsRegistry.
    columns`, in link-prefix order) and its drops from the drop
    counters that exist; violations come sorted by link."""
    pre_wire: Dict[str, Number] = {}
    for reason in PRE_WIRE_REASONS:
        for prefix, count in _per_link(registry, f"drop.{reason}").items():
            pre_wire[prefix] = pre_wire.get(prefix, 0) + count
    late_drops = _per_link(registry, f"drop.{LATE_REASON}")
    head = "netsim.link."
    found = []
    for prefix, (attempts, tx, fanout, rx) in registry.columns(
        head, "attempts", "tx_packets", "fanout", "rx_packets"
    ).items():
        pre_drops = pre_wire.get(prefix, 0)
        if attempts != tx + pre_drops:
            link = prefix[len(head) : -1]
            found.append(
                (
                    link,
                    f"link {link}: attempts {attempts} != "
                    f"tx {tx} + pre-wire drops {pre_drops}",
                )
            )
        late = late_drops.get(prefix, 0)
        in_flight = fanout - rx - late
        if in_flight < 0:
            link = prefix[len(head) : -1]
            found.append(
                (
                    link,
                    f"link {link}: negative in-flight ({fanout} scheduled, "
                    f"{rx} delivered, {late} late drops)",
                )
            )
    found.sort(key=itemgetter(0))  # stable: a link's two laws keep their order
    return [violation for _, violation in found]


def label_conservation(registry: MetricsRegistry) -> List[str]:
    """Per payload label: scheduled deliveries never under-run
    deliveries + late drops."""
    violations = []
    labels = set()
    for name in registry.matching("netsim.msg.*.tx"):
        labels.add(name.split(".")[2])
    for label in sorted(labels):
        in_flight = msg_in_flight(registry, label)
        if in_flight < 0:
            violations.append(f"label {label}: negative in-flight ({in_flight})")
    return violations


def cbt_conservation(registry: MetricsRegistry) -> List[str]:
    """CBT per-message-type flow conservation across layers.

    For every type: protocol-level sends == wire transmissions plus
    pre-wire and node-level drops (nothing leaves the protocol layer
    unaccounted).  For unicast types additionally: protocol sends ==
    protocol receives + every drop + in flight (the end-to-end law —
    CBT control is addressed hop-by-hop, so wire rx and protocol rx
    must agree).
    """
    violations = []
    for label in ALL_CBT_TYPES:
        low = label.lower()
        proto_tx = registry.total(f"cbt.router.*.tx.{low}")
        wire_tx = _msg_value(registry, label, "tx")
        unwired = _msg_drops(registry, label, PRE_WIRE_REASONS + NODE_REASONS)
        if proto_tx != wire_tx + unwired:
            violations.append(
                f"{label}: protocol tx {proto_tx} != wire tx {wire_tx} "
                f"+ pre-wire/node drops {unwired}"
            )
    for label in UNICAST_CBT_TYPES:
        low = label.lower()
        proto_tx = registry.total(f"cbt.router.*.tx.{low}")
        proto_rx = registry.total(f"cbt.router.*.rx.{low}")
        drops = _msg_drops(
            registry, label, PRE_WIRE_REASONS + NODE_REASONS + (LATE_REASON,)
        )
        in_flight = msg_in_flight(registry, label)
        if proto_tx != proto_rx + drops + in_flight:
            violations.append(
                f"{label}: protocol tx {proto_tx} != protocol rx {proto_rx} "
                f"+ drops {drops} + in-flight {in_flight}"
            )
    return violations


def _igmp_totals(registry: MetricsRegistry) -> Dict[Tuple[str, str], Number]:
    """``(family head, metric) -> sum over the families`` of every
    statistic :data:`IGMP_TX` / :data:`IGMP_RX` name: one
    :meth:`MetricsRegistry.columns` read per head."""
    wanted: Dict[str, List[str]] = {}
    for stats in (*IGMP_TX.values(), *IGMP_RX.values()):
        for head, metric in stats:
            wanted.setdefault(head, []).append(metric)
    totals: Dict[Tuple[str, str], Number] = {}
    for head, metrics in wanted.items():
        rows = registry.columns(head, *metrics).values()  # a tuple each
        sums = [sum(column) for column in zip(*rows)] or [0] * len(metrics)
        totals.update(zip(((head, metric) for metric in metrics), sums))
    return totals


def igmp_conservation(registry: MetricsRegistry) -> List[str]:
    """IGMP tx-side accounting (all IGMP is link-local multicast, so
    the rx side is bounded by wire deliveries rather than equal)."""
    violations = []
    totals = _igmp_totals(registry)
    for label, sent in IGMP_TX.items():
        proto_tx = sum(totals[stat] for stat in sent)
        wire_tx = _msg_value(registry, label, "tx")
        unwired = _msg_drops(registry, label, PRE_WIRE_REASONS + NODE_REASONS)
        if proto_tx != wire_tx + unwired:
            violations.append(
                f"{label}: protocol tx {proto_tx} != wire tx {wire_tx} "
                f"+ pre-wire/node drops {unwired}"
            )
        proto_rx = sum(totals[stat] for stat in IGMP_RX[label])
        wire_rx = _msg_value(registry, label, "rx")
        if proto_rx > wire_rx:
            violations.append(
                f"{label}: protocol rx {proto_rx} exceeds wire deliveries {wire_rx}"
            )
    return violations


def fib_conservation(registry: MetricsRegistry, protocols: Dict) -> List[str]:
    """Per router: FIB adds − removes == live entries, and every live
    entry's downloaded kernel entry equals a fresh compile of it — a
    write that bypassed the mutators shows here (CBT protocols only —
    comparator engines keep their own non-FIB state).  The counts are
    the FIB's own attributes, which its router's registry family
    reads."""
    violations = []
    for name, protocol in sorted(protocols.items()):
        if not hasattr(protocol, "fib"):
            continue
        fib = protocol.fib
        adds, removes, live = fib.fib_adds, fib.fib_removes, len(fib.by_group)
        if adds - removes != live:
            violations.append(
                f"router {name}: fib adds {adds} - removes {removes} "
                f"!= live entries {live}"
            )
        for entry in fib.by_group.values():
            if entry.kernel != type(entry.kernel).from_user_entry(entry):
                violations.append(
                    f"router {name}: group {entry.group} forwards from a "
                    f"stale download ({entry.kernel} for {entry})"
                )
    return violations


def histogram_conservation(registry: MetricsRegistry) -> List[str]:
    """Bucket counts sum to the observation count, and join-latency
    observations match the joins-completed counter."""
    violations = []
    for histogram in registry.histograms_matching("*"):
        if sum(histogram.bucket_counts) != histogram.count:
            violations.append(
                f"histogram {histogram.name}: bucket sum "
                f"{sum(histogram.bucket_counts)} != count {histogram.count}"
            )
    joins_completed = registry.columns("cbt.router.", "joins_completed")
    for histogram in registry.histograms_matching("cbt.router.*.join_latency"):
        prefix = histogram.name[: -len("join_latency")]
        completed = joins_completed.get(prefix, 0)
        if histogram.count != completed:
            violations.append(
                f"histogram {histogram.name}: count {histogram.count} "
                f"!= joins_completed {completed}"
            )
    return violations


def membership_conservation(registry: MetricsRegistry, protocols: Dict) -> List[str]:
    """Per router: membership gains − losses == live (vif, group) pairs,
    and the group index the data plane reads agrees with them.  The
    counts are the IGMP agent's own attributes, which its registry
    family reads."""
    violations = []
    for name, protocol in sorted(protocols.items()):
        agent = getattr(protocol, "igmp", None)
        if agent is None:
            continue
        gains, losses = agent.stats.membership_gains, agent.stats.membership_losses
        database = agent.database
        by_interface = database._by_interface
        live = sum(map(len, by_interface.values()))
        if gains - losses != live:
            violations.append(
                f"router {name}: membership gains {gains} - losses {losses} "
                f"!= live memberships {live}"
            )
        for group in sorted(set().union(*by_interface.values())) if live else ():
            scan = tuple(vif for vif, on in by_interface.items() if group in on)
            if database.interfaces_with(group) != scan:
                violations.append(
                    f"router {name}: group {group} member index "
                    f"{database.interfaces_with(group)} != {scan}"
                )
        if sum(map(len, database._by_group.values())) != live:
            violations.append(f"router {name}: member index holds a dead group")
    return violations


def scheduler_conservation(scheduler) -> List[str]:
    """Engine accounting: every scheduled event fires, is cancelled, or
    is still pending."""
    scheduled = scheduler.events_scheduled
    processed = scheduler.events_processed
    cancelled = scheduler.events_cancelled
    pending = scheduler.pending_events
    if scheduled != processed + cancelled + pending:
        return [
            f"scheduler: scheduled {scheduled} != processed {processed} "
            f"+ cancelled {cancelled} + pending {pending}"
        ]
    return []


def check_conservation(network, domain: Optional[object] = None) -> List[str]:
    """Run every applicable law; returns all violations (empty = good).

    ``network`` needs ``.scheduler.telemetry``; ``domain`` (optional)
    supplies protocols for the FIB and membership laws.
    """
    telemetry = network.scheduler.telemetry
    registry = telemetry.registry
    violations = []
    violations += link_conservation(registry)
    violations += label_conservation(registry)
    violations += cbt_conservation(registry)
    violations += igmp_conservation(registry)
    violations += histogram_conservation(registry)
    violations += scheduler_conservation(network.scheduler)
    if domain is not None:
        protocols = getattr(domain, "protocols", {})
        violations += fib_conservation(registry, protocols)
        violations += membership_conservation(registry, protocols)
    return violations
