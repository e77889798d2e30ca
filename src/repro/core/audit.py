"""Domain auditing: a protocol ``fsck`` for CBT deployments.

This module is the one place a CBT tree is checked.
:func:`check_invariants` is the one whole-domain sweep, and every
other whole-domain check builds on it; every reader below walks
parent pointers with :func:`_parent_loops` and shares one copy of each
per-router hard check.

:func:`check_invariants` reports errors only: conditions that must
hold at any quiescent instant and may only appear transiently while
the protocol converges.  The always-on :class:`InvariantAuditor`
samples a running domain at a configurable interval and fails loudly
— :class:`InvariantViolation` carrying the recent protocol event trace
— when a violation outlives its grace window, i.e. when the §6
recovery machinery demonstrably failed to repair the tree.
``CBTDomain.assert_tree_consistent`` raises on its findings for one
group.

``audit_domain`` is :func:`check_invariants` plus the operational
smells no invariant covers: a child no CBT router owns or that holds
no state for the group (a stale child), and a member LAN served by no
on-tree router or by several.  Tests use it as a one-call health
check; ``repro walkthrough`` prints it and fails on any error.

The systematic explorer (:mod:`repro.explore`) checks at two moments.
:func:`transition_findings` runs after every explored transition,
mid-convergence, so only *hard* invariants apply: no self-reference,
no transient state without its driving timer, and no loop unless a
repair is in flight.  Soft conditions with legitimate transient
windows (asymmetry while a QUIT or JOIN_ACK is in flight, age bounds)
would drown the explorer's short windows in false alarms.
:func:`convergence_findings` runs once the schedule is spent and the
simulation settled: the full :func:`check_invariants` sweep, every
member LAN served, every parent chain rooted at a core, and data
deliverable from a core over child pointers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.netsim.address import IPv4Address
from repro.netsim.engine import PeriodicTimer


@dataclass(frozen=True)
class Finding:
    """One audit observation."""

    severity: str  # "error" (invariant broken) or "warning" (smell)
    router: str
    group: Optional[IPv4Address]
    message: str

    def __str__(self) -> str:
        group = f" group={self.group}" if self.group is not None else ""
        return f"[{self.severity}] {self.router}{group}: {self.message}"


def audit_domain(domain, now: Optional[float] = None) -> List[Finding]:
    """Audit every group on every router of a CBT domain: the
    :func:`check_invariants` errors, then the smells no invariant
    covers (unknown or stale children, unserved or double-served
    member LANs)."""
    findings = check_invariants(domain, now)
    findings.extend(_check_children(domain))
    findings.extend(_check_lan_service(domain))
    return findings


def _check_children(domain) -> List[Finding]:
    """Children that no CBT router owns, or whose router holds no
    state for the group (stale; CHILD-ASSERT expires them)."""
    out: List[Finding] = []
    for name, protocol in _live(domain).items():
        for entry in protocol.fib:
            for child_address in entry.children:
                child_name = domain.router_of(child_address)
                if child_name is None:
                    message = f"child {child_address} is not a known CBT router"
                    out.append(Finding("error", name, entry.group, message))
                elif domain.protocols[child_name].fib.get(entry.group) is None:
                    message = (
                        f"child {child_name} holds no state for the group "
                        "(stale child; CHILD-ASSERT will expire it)"
                    )
                    out.append(Finding("warning", name, entry.group, message))
    return out


def _check_lan_service(domain) -> List[Finding]:
    """Member LANs should be served by exactly one attached on-tree
    router (the G-DR property of §2.6)."""
    out: List[Finding] = []
    # link network -> group -> [router names on-tree attached]
    service: Dict = {}
    membership: Dict = {}
    for name, protocol in domain.protocols.items():
        for interface in protocol.router.interfaces:
            for group in protocol.igmp.database.groups_on(interface):
                membership.setdefault((interface.network, group), set()).add(name)
                if protocol.fib.get(group) is not None:
                    service.setdefault((interface.network, group), []).append(name)
    for (network, group), routers in membership.items():
        servers = service.get((network, group), [])
        if len(servers) > 1:
            out.append(
                Finding(
                    "warning",
                    ",".join(sorted(servers)),
                    group,
                    f"member LAN {network} served by multiple on-tree routers "
                    "(duplicate delivery risk)",
                )
            )
        elif not servers:
            out.append(
                Finding(
                    "warning",
                    ",".join(sorted(routers)),
                    group,
                    f"member LAN {network} has group members but no "
                    "attached on-tree router",
                )
            )
    return out


def errors(findings: List[Finding]) -> List[Finding]:
    return [f for f in findings if f.severity == "error"]


def warnings(findings: List[Finding]) -> List[Finding]:
    return [f for f in findings if f.severity == "warning"]


# -- always-on invariant auditing (ISSUE-2 tentpole, part 3) ----------------


def _crashed(protocol) -> bool:
    """A node with every interface down is frozen mid-crash; its state
    is unreachable and deliberately excluded from invariant checks."""
    for interface in protocol.router.interfaces:
        if interface._up:
            return False
    return True


def _live(domain) -> Dict[str, object]:
    """Routers that hold state (a FIB entry, a pending join, a quit or
    a rejoin in progress) and are not crashed.  Only these can break
    an invariant; the rest of the domain costs one emptiness test each."""
    return {
        name: protocol
        for name, protocol in domain.protocols.items()
        if (
            protocol.fib.by_group
            or protocol.pending
            or protocol.quits
            or protocol.rejoins
        )
        and not _crashed(protocol)
    }


def _self_references(name: str, owns, entry) -> List[Finding]:
    """An entry naming one of its own router's addresses (``owns``) as
    parent or child.  Self-references satisfy the symmetry check (the
    router vouches for itself), so they are rejected explicitly: a join
    delivered back to its sender welds exactly this."""
    group = entry.group
    out: List[Finding] = []
    if entry.has_parent and owns(entry.parent_address):
        out.append(Finding("error", name, group, "lists itself as parent"))
    for child in filter(owns, entry.children):
        out.append(Finding("error", name, group, f"lists itself ({child}) as a child"))
    return out


def _stuck_pending(name: str, protocol, now: Optional[float] = None) -> List[Finding]:
    """Pending joins with no live expiry timer; given ``now``, also
    those that outlived EXPIRE-PENDING-JOIN by more than two
    retransmission intervals."""
    out: List[Finding] = []
    timers = protocol.timers
    bound = timers.expire_pending_join + 2 * timers.pend_join_interval
    for group, pend in protocol.pending.items():
        if now is not None and now - pend.created_at > bound:
            age = now - pend.created_at
            message = f"pending join is {age:.1f}s old (bound {bound:.1f}s)"
            out.append(Finding("error", name, group, message))
        if pend.expiry_timer is None or not pend.expiry_timer.pending:
            message = "pending join has no live expiry timer (stuck transient state)"
            out.append(Finding("error", name, group, message))
    return out


def _stuck_quits(name: str, protocol) -> List[Finding]:
    """Groups marked quitting with no live retry timer driving them."""
    return [
        Finding("error", name, group, "quit in progress with no live retry timer")
        for group, record in protocol.quits.items()
        if record.retry_timer is None or not record.retry_timer.pending
    ]


def _parent_loops(domain, walkable, groups: Iterable) -> List[Finding]:
    """The parent-pointer loop walker; at most one finding per group.

    For each group in address order, walks parent pointers from every
    router of ``walkable`` (name -> protocol).  A walk ends at a root,
    at a parent no CBT router owns, at a router outside ``walkable``,
    or where an earlier walk of the group already went on to a root.
    A walk that revisits a router reports a loop there and ends the
    group.  So does a walk that runs into a crashed router outside
    ``walkable``: it is reported as a loop at that router, although
    the crash, not a cycle, may be what stopped it.
    """
    out: List[Finding] = []
    for group in sorted(groups, key=int):
        rooted: Set[str] = set()
        for start in walkable:
            seen = set()
            current = start
            while (
                current is not None
                and current not in seen
                and current not in rooted
            ):
                seen.add(current)
                protocol = walkable.get(current)
                if protocol is None:
                    if not _crashed(domain.protocols[current]):
                        current = None
                    break
                entry = protocol.fib.by_group.get(group)
                if entry is None or not entry.has_parent:
                    current = None
                else:
                    current = domain.router_of(entry.parent_address)
            if current is not None and current in seen:
                out.append(
                    Finding("error", current, group, "parent pointers form a loop")
                )
                break
            rooted |= seen
    return out


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
    live = _live(domain)

    for name, protocol in live.items():
        owns = protocol.router.owns_address
        for entry in protocol.fib.by_group.values():
            group = entry.group
            findings.extend(_self_references(name, owns, entry))
            message = None
            if entry.has_parent:
                parent_name = domain.router_of(entry.parent_address)
                if parent_name is None:
                    message = f"parent {entry.parent_address} is not a known CBT router"
                elif parent_name in live or not _crashed(domain.protocols[parent_name]):
                    parent_entry = domain.protocols[parent_name].fib.by_group.get(group)
                    if parent_entry is None or not any(map(owns, parent_entry.children)):
                        message = f"parent {parent_name} does not list this router as a child"
            elif not protocol.is_core_for(group) and not (
                group in protocol.pending
                or group in protocol.rejoins
                or group in protocol.quits
            ):
                if entry.has_children or protocol.igmp.any_member_subnet(group):
                    message = (
                        "stranded subtree root: no parent, not a core, and no "
                        "re-attachment in progress"
                    )
                else:
                    message = (
                        "orphaned FIB entry: no parent, children, members, or core role"
                    )
            if message is not None:
                findings.append(Finding("error", name, group, message))
        if protocol.pending:
            findings.extend(_stuck_pending(name, protocol, now))
        if protocol.quits:
            findings.extend(_stuck_quits(name, protocol))

    groups = {group for protocol in live.values() for group in protocol.fib.by_group}
    findings.extend(_parent_loops(domain, live, groups))
    return findings


# -- the explorer's two oracles ----------------------------------------------


def transition_findings(domain, check_loops: bool = True) -> List[Finding]:
    """Hard invariants that must hold between any two events.

    Loops are checked only with ``check_loops`` and only for groups
    with no repair in flight (a pending join or rejoin anywhere): a
    §6.3 loop may legitimately exist until detection breaks it.
    """
    findings: List[Finding] = []
    live = _live(domain)
    for name, protocol in live.items():
        owns = protocol.router.owns_address
        for entry in protocol.fib:
            findings.extend(_self_references(name, owns, entry))
        if protocol.pending:
            findings.extend(_stuck_pending(name, protocol))
        if protocol.quits:
            findings.extend(_stuck_quits(name, protocol))

    if check_loops:
        groups = {
            entry.group for protocol in live.values() for entry in protocol.fib
        }
        for protocol in live.values():
            groups.difference_update(protocol.rejoins)
            groups.difference_update(protocol.pending)
        findings.extend(_parent_loops(domain, live, groups))
    return findings


def convergence_findings(domain, group, members) -> List[Finding]:
    """End-state oracle: invariants + member service + core-rooted tree."""
    findings = list(check_invariants(domain))
    on_tree = {
        name: protocol
        for name, protocol in _live(domain).items()
        if protocol.fib.get(group) is not None
    }
    serving = {}
    for member in members:
        subnet = domain.network.host(member).interface.network
        serving[member] = subnet, [
            name
            for name, protocol in on_tree.items()
            if any(
                interface.network == subnet
                for interface in protocol.router.interfaces
            )
        ]

    # Every member host's LAN must have an attached on-tree router.
    for member in members:
        subnet, routers = serving[member]
        if not routers:
            findings.append(
                Finding(
                    "error",
                    member,
                    group,
                    f"member LAN {subnet} has no attached on-tree router",
                )
            )

    # Every on-tree router must reach a core via parent pointers (the
    # tree the unicast-routed joins built must root at a core).
    for name in on_tree:
        current, hops = name, 0
        while True:
            walker = domain.protocols[current]
            if _crashed(walker):
                break  # frozen state; the invariant sweep covers it
            if walker.is_core_for(group):
                break
            entry = walker.fib.get(group)
            if entry is None or not entry.has_parent:
                findings.append(
                    Finding(
                        "error",
                        name,
                        group,
                        f"parent chain ends at non-core {current}",
                    )
                )
                break
            nxt = domain.router_of(entry.parent_address)
            hops += 1
            if nxt is None or hops > len(domain.protocols):
                break  # unknown parent / loop: already reported above
            current = nxt

    # Data must be able to arrive.  Members with no serving router at
    # all are skipped: the member-LAN check above owns that failure.
    reachable = _downstream_of_cores(domain, group, on_tree)
    for member in sorted(members):
        subnet, routers = serving[member]
        if routers and reachable.isdisjoint(routers):
            findings.append(
                Finding(
                    "error",
                    member,
                    group,
                    f"data can never arrive: no on-tree router on member "
                    f"LAN {subnet} is reachable from a core over child "
                    f"links",
                )
            )
    return findings


def _downstream_of_cores(domain, group, on_tree) -> Set[str]:
    """The on-tree routers a data packet can reach from a core.

    Data flows *down* the tree: a core forwards over its child
    pointers, each child over its own, until the member LAN.  The
    parent-chain check walks the opposite direction, so it cannot see
    a hop whose parent pointer is intact but whose upstream's matching
    *child* pointer is gone — packets stop there while every JOIN-side
    invariant still holds.  So flood downstream from every on-tree
    core over child pointers.
    """
    queue = [name for name, protocol in on_tree.items() if protocol.is_core_for(group)]
    reachable = set(queue)
    while queue:
        for child_address in on_tree[queue.pop()].fib.get(group).children:
            child = domain.router_of(child_address)
            if child in on_tree and child not in reachable:
                reachable.add(child)
                queue.append(child)
    return reachable


class InvariantViolation(AssertionError):
    """A tree invariant outlived its grace window during a run.

    Carries the offending findings and the recent protocol event trace
    so a failed campaign is diagnosable from the exception alone.
    """

    def __init__(self, findings: List[Finding], trace: List[str]) -> None:
        self.findings = findings
        self.trace = trace
        lines = [f"{len(findings)} invariant violation(s):"]
        lines.extend(f"  {finding}" for finding in findings)
        if trace:
            lines.append("recent protocol events:")
            lines.extend(f"  {line}" for line in trace)
        super().__init__("\n".join(lines))


class InvariantAuditor:
    """Checks :func:`check_invariants` at intervals during a run.

    A finding may appear transiently while the protocol converges (a
    rejoin loop exists *by design* until §6.3 detection breaks it), so
    a violation is only raised when the same finding persists beyond
    ``grace`` seconds: the slowest legitimate repair path of the
    domain's timer profile, child-assert expiry plus one assert
    interval plus a join retransmission.

    Usage::

        auditor = InvariantAuditor(domain, interval=0.5)
        auditor.start()
        net.run(until=...)          # raises InvariantViolation (and stops)
        auditor.stop()
    """

    def __init__(self, domain, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.domain = domain
        self.interval = interval
        timers = next(iter(domain.protocols.values())).timers
        self.grace = (
            timers.child_assert_expire
            + timers.child_assert_interval
            + timers.pend_join_interval
        )
        self.checks_run = 0
        self._first_seen: Dict[Tuple, float] = {}
        scheduler = domain.network.scheduler
        self._ticker = PeriodicTimer(scheduler, interval, self._tick)
        scheduler.register(self)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self._ticker.start()

    def stop(self) -> None:
        self._ticker.stop()

    # -- checking -------------------------------------------------------

    def check_now(self) -> List[Finding]:
        """One audit pass; updates persistence tracking, returns the
        findings that are now overdue (past their grace window)."""
        now = self.domain.network.scheduler.now
        findings = check_invariants(self.domain, now=now)
        self.checks_run += 1
        fingerprints = {}
        for finding in findings:
            key = (finding.router, finding.group, finding.message)
            fingerprints[key] = finding
        # Findings that healed reset their clock.
        self._first_seen = {
            key: seen
            for key, seen in self._first_seen.items()
            if key in fingerprints
        }
        for key in fingerprints:
            self._first_seen.setdefault(key, now)
        return [
            finding
            for key, finding in fingerprints.items()
            if now - self._first_seen[key] > self.grace
        ]

    def event_trace(self) -> List[str]:
        """The domain's 40 most recent protocol events from the trace
        bus, by time; at one instant in the domain's router order, each
        router's own in the order it recorded them."""
        rank = {name: index for index, name in enumerate(self.domain.protocols)}
        events = [
            event
            for event in self.domain.telemetry.bus.records("protocol")
            if event.router in rank
        ]
        events.sort(key=lambda event: (event.time, rank[event.router]))
        return [
            f"t={event.time:.3f} {event.router} {event.kind} group={event.group}"
            + (f" {event.detail}" if event.detail else "")
            for event in events[-40:]
        ]

    def _tick(self) -> None:
        overdue = self.check_now()
        if overdue:
            violation = InvariantViolation(overdue, self.event_trace())
            self.stop()
            raise violation
