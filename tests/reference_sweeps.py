"""Reference implementations the fast observers are pinned to.

ROADMAP aim 3: every fast path is pinned to a slow reference, and the
reference lives in the tests.  These are the full-sweep readers as
they stood before the observers were made to cost O(tree) — every
router, every interface, every instrument by name, the address map
rebuilt from scratch per call — moved here verbatim (methods of
``CBTDomain`` became functions of ``domain``).  Nothing in ``src/``
imports this module; ``tests/test_observer_references.py`` compares
the two sides for ``==`` — finding texts and order included.

One order the reference never fixed: two of a router's *own* addresses
among the children of a single entry were reported in set-intersection
order, which follows ``str`` hashes and so the process's hash seed.
The fast sweep reports them in ``children`` order; no state visited
holds more than one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.audit import Finding
from repro.netsim.address import IPv4Address
from repro.telemetry.conservation import LATE_REASON
from repro.telemetry.registry import MetricsRegistry


def from_scratch_index(domain) -> Dict[IPv4Address, str]:
    """Interface address -> router name, built from scratch."""
    owner: Dict[IPv4Address, str] = {}
    for name, protocol in domain.protocols.items():
        for interface in protocol.router.interfaces:
            owner[interface.address] = name
    return owner


class FromScratchIndex:
    """``domain`` with ``router_of`` answered from a map rebuilt for
    this view — the reference side for readers whose only change was
    to read ``CBTDomain.router_of`` (``audit_domain``, the explorer's
    oracles)."""

    def __init__(self, domain) -> None:
        self._domain = domain
        self.router_of = from_scratch_index(domain).get

    def __getattr__(self, name):
        return getattr(self._domain, name)


def control_messages_sent(domain, exclude_hello: bool = True) -> int:
    """One ``cbt.router.<name>.tx.*`` pattern read per router."""
    registry = domain.telemetry.registry
    total = 0
    for name in domain.protocols:
        prefix = f"cbt.router.{name}.tx."
        total += registry.total(prefix + "*")
        if exclude_hello:
            total -= registry.value(prefix + "hello")
    return int(total)


# -- core/audit.py -----------------------------------------------------------


def _crashed(protocol) -> bool:
    """A node with every interface down is frozen mid-crash; its state
    is unreachable and deliberately excluded from invariant checks."""
    return all(not interface.up for interface in protocol.router.interfaces)


def check_invariants(domain, now: Optional[float] = None) -> List[Finding]:
    """Error-only invariant sweep for a (possibly mid-fault) domain.

    Invariants checked:

    * parent/child symmetry — a router's parent must list it as a child;
    * acyclicity — parent pointers never loop (among live routers);
    * core-rooted — a parentless on-tree router either owns a core
      address for the group or is actively re-attaching (pending join,
      rejoin attempt, or quit in progress); anything else is a stranded
      subtree root or an orphaned FIB entry;
    * bounded pending joins — transient state must carry a live expiry
      timer and never outlive EXPIRE-PENDING-JOIN by more than a
      retransmission interval;
    * bounded quits — a group marked quitting must have a live retry
      timer driving it.

    Routers whose interfaces are all down (crashed) are skipped, as are
    relationships that reference them: their state is frozen and will
    be re-audited once they restart.
    """
    if now is None:
        now = domain.network.scheduler.now
    findings: List[Finding] = []
    address_owner: Dict[IPv4Address, str] = {}
    live: Dict[str, object] = {}
    crashed_names: Set[str] = set()
    for name, protocol in domain.protocols.items():
        for interface in protocol.router.interfaces:
            address_owner[interface.address] = name
        if _crashed(protocol):
            crashed_names.add(name)
        else:
            live[name] = protocol

    for name, protocol in live.items():
        timers = protocol.timers
        own_addresses = {i.address for i in protocol.router.interfaces}
        for entry in protocol.fib:
            group = entry.group
            # Self-references satisfy the symmetry check below (the
            # router vouches for itself), so reject them explicitly: a
            # join delivered back to its sender welds exactly this.
            if entry.has_parent and entry.parent_address in own_addresses:
                findings.append(
                    Finding("error", name, group, "lists itself as parent")
                )
            for child in own_addresses & set(entry.children):
                findings.append(
                    Finding(
                        "error", name, group, f"lists itself ({child}) as a child"
                    )
                )
            if entry.has_parent:
                parent_name = address_owner.get(entry.parent_address)
                if parent_name is None:
                    findings.append(
                        Finding(
                            "error",
                            name,
                            group,
                            f"parent {entry.parent_address} is not a known "
                            "CBT router",
                        )
                    )
                elif parent_name not in crashed_names:
                    parent_entry = domain.protocols[parent_name].fib.get(group)
                    if parent_entry is None or not (
                        own_addresses & set(parent_entry.children)
                    ):
                        findings.append(
                            Finding(
                                "error",
                                name,
                                group,
                                f"parent {parent_name} does not list this "
                                "router as a child",
                            )
                        )
            else:
                in_repair = (
                    group in protocol.pending
                    or group in protocol.rejoins
                    or group in protocol.quits
                )
                if not protocol.is_core_for(group) and not in_repair:
                    if entry.has_children or protocol.igmp.any_member_subnet(
                        group
                    ):
                        findings.append(
                            Finding(
                                "error",
                                name,
                                group,
                                "stranded subtree root: no parent, not a "
                                "core, and no re-attachment in progress",
                            )
                        )
                    else:
                        findings.append(
                            Finding(
                                "error",
                                name,
                                group,
                                "orphaned FIB entry: no parent, children, "
                                "members, or core role",
                            )
                        )
        bound = timers.expire_pending_join + 2 * timers.pend_join_interval
        for group, pend in protocol.pending.items():
            age = now - pend.created_at
            if age > bound:
                findings.append(
                    Finding(
                        "error",
                        name,
                        group,
                        f"pending join is {age:.1f}s old (bound {bound:.1f}s)",
                    )
                )
            if pend.expiry_timer is None or not pend.expiry_timer.pending:
                findings.append(
                    Finding(
                        "error",
                        name,
                        group,
                        "pending join has no live expiry timer (stuck "
                        "transient state)",
                    )
                )
        for group, record in protocol.quits.items():
            timer = record.retry_timer
            if timer is None or not timer.pending:
                findings.append(
                    Finding(
                        "error",
                        name,
                        group,
                        "quit in progress with no live retry timer",
                    )
                )

    findings.extend(_check_live_loops(domain, address_owner, live))
    return findings


def _check_live_loops(domain, address_owner, live) -> List[Finding]:
    """Parent-pointer loop detection restricted to live routers."""
    out: List[Finding] = []
    groups = {
        entry.group for protocol in live.values() for entry in protocol.fib
    }
    for group in sorted(groups, key=int):
        for start in live:
            seen = set()
            current = start
            while current is not None and current not in seen:
                seen.add(current)
                protocol = live.get(current)
                if protocol is None:
                    break  # walk reached a crashed router: frozen, not a loop
                entry = protocol.fib.get(group)
                if entry is None or not entry.has_parent:
                    current = None
                else:
                    current = address_owner.get(entry.parent_address)
            if current is not None and current in seen:
                out.append(
                    Finding(
                        "error", current, group, "parent pointers form a loop"
                    )
                )
                break
    return out


# -- core/bootstrap.py (CBTDomain methods) ---------------------------------------


def tree_edges(domain, group: IPv4Address) -> List[Tuple[str, str]]:
    """(child, parent) router-name pairs for the group's tree."""
    by_address = {}
    for name, protocol in domain.protocols.items():
        for interface in protocol.router.interfaces:
            by_address[interface.address] = name
    edges = []
    for name, protocol in domain.protocols.items():
        parent = protocol.tree_parent(group)
        if parent is not None:
            edges.append((name, by_address.get(parent, str(parent))))
    return sorted(edges)


# -- telemetry/conservation.py -----------------------------------------------------


def link_conservation(registry: MetricsRegistry) -> List[str]:
    """Per link: every transmit attempt is a wire tx or a reasoned drop,
    and every scheduled delivery is delivered, late-dropped, or still
    in flight (never negative)."""
    violations = []
    links = set()
    for name in registry.matching("netsim.link.*.attempts"):
        links.add(name.split(".")[2])
    for link in sorted(links):
        base = f"netsim.link.{link}"
        attempts = registry.value(f"{base}.attempts")
        tx = registry.value(f"{base}.tx_packets")
        pre_drops = registry.total(f"{base}.drop.*") - registry.value(
            f"{base}.drop.{LATE_REASON}"
        )
        if attempts != tx + pre_drops:
            violations.append(
                f"link {link}: attempts {attempts} != "
                f"tx {tx} + pre-wire drops {pre_drops}"
            )
        fanout = registry.value(f"{base}.fanout")
        rx = registry.value(f"{base}.rx_packets")
        late = registry.value(f"{base}.drop.{LATE_REASON}")
        in_flight = fanout - rx - late
        if in_flight < 0:
            violations.append(
                f"link {link}: negative in-flight ({fanout} scheduled, "
                f"{rx} delivered, {late} late drops)"
            )
    return violations
