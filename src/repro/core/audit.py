"""Domain auditing: a protocol ``fsck`` for CBT deployments.

``audit_domain`` sweeps every router and reports findings — conditions
that are either invariant violations (parent/child disagreement, tree
loops) or operational smells (stale pending joins, stranded member
LANs, double-served LANs).  Tests use it as a one-call health check;
operators would run it from the CLI after incidents.

:func:`check_invariants` is the strict, error-only subset used by the
always-on :class:`InvariantAuditor`: conditions that must hold at any
quiescent instant and may only appear transiently while the protocol
converges.  The auditor samples a running domain at a configurable
interval and fails loudly — :class:`InvariantViolation` carrying the
recent protocol event trace — when a violation outlives its grace
window, i.e. when the §6 recovery machinery demonstrably failed to
repair the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.netsim.address import IPv4Address


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
    """Audit every group on every router of a CBT domain."""
    findings: List[Finding] = []
    if now is None:
        now = domain.network.scheduler.now

    findings.extend(_check_relationships(domain))
    findings.extend(_check_loops(domain))
    findings.extend(_check_transients(domain, now))
    findings.extend(_check_lan_service(domain))
    return findings


def _check_relationships(domain) -> List[Finding]:
    out: List[Finding] = []
    for name, protocol in domain.protocols.items():
        for entry in protocol.fib:
            if entry.has_parent:
                parent_name = domain.router_of(entry.parent_address)
                if parent_name is None:
                    out.append(
                        Finding(
                            "error",
                            name,
                            entry.group,
                            f"parent {entry.parent_address} is not a known CBT router",
                        )
                    )
                    continue
                parent_entry = domain.protocols[parent_name].fib.get(entry.group)
                my_addresses = {
                    i.address for i in protocol.router.interfaces
                }
                if parent_entry is None or not (
                    my_addresses & set(parent_entry.children)
                ):
                    out.append(
                        Finding(
                            "error",
                            name,
                            entry.group,
                            f"parent {parent_name} does not list this router as a child",
                        )
                    )
            for child_address in entry.children:
                child_name = domain.router_of(child_address)
                if child_name is None:
                    out.append(
                        Finding(
                            "error",
                            name,
                            entry.group,
                            f"child {child_address} is not a known CBT router",
                        )
                    )
                    continue
                child_entry = domain.protocols[child_name].fib.get(entry.group)
                if child_entry is None:
                    out.append(
                        Finding(
                            "warning",
                            name,
                            entry.group,
                            f"child {child_name} holds no state for the group "
                            "(stale child; CHILD-ASSERT will expire it)",
                        )
                    )
    return out


def _check_loops(domain) -> List[Finding]:
    out: List[Finding] = []
    groups = {
        entry.group
        for protocol in domain.protocols.values()
        for entry in protocol.fib
    }
    for group in groups:
        for start in domain.protocols:
            seen = set()
            current = start
            while current is not None and current not in seen:
                seen.add(current)
                entry = domain.protocols[current].fib.get(group)
                if entry is None or not entry.has_parent:
                    current = None
                else:
                    current = domain.router_of(entry.parent_address)
            if current is not None:
                out.append(
                    Finding(
                        "error",
                        current,
                        group,
                        "parent pointers form a loop",
                    )
                )
                break
    return out


def _check_transients(domain, now: float) -> List[Finding]:
    out: List[Finding] = []
    for name, protocol in domain.protocols.items():
        for group, pend in protocol.pending.items():
            age = now - pend.created_at
            if age > protocol.timers.expire_pending_join:
                out.append(
                    Finding(
                        "warning",
                        name,
                        group,
                        f"pending join is {age:.1f}s old "
                        "(exceeds EXPIRE-PENDING-JOIN)",
                    )
                )
        for group in protocol._quitting:
            out.append(
                Finding("warning", name, group, "quit still outstanding")
            )
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
    # Only a router holding state can break an invariant; the rest of
    # the domain costs one emptiness test each.
    live: Dict[str, object] = {
        name: protocol
        for name, protocol in domain.protocols.items()
        if (protocol.fib or protocol.pending or protocol._quitting)
        and not _crashed(protocol)
    }

    for name, protocol in live.items():
        timers = protocol.timers
        owns = protocol.router.owns_address
        for entry in protocol.fib:
            group = entry.group
            # Self-references satisfy the symmetry check below (the
            # router vouches for itself), so reject them explicitly: a
            # join delivered back to its sender welds exactly this.
            if entry.has_parent and owns(entry.parent_address):
                findings.append(
                    Finding("error", name, group, "lists itself as parent")
                )
            for child in filter(owns, entry.children):
                findings.append(
                    Finding(
                        "error", name, group, f"lists itself ({child}) as a child"
                    )
                )
            if entry.has_parent:
                parent_name = domain.router_of(entry.parent_address)
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
                elif parent_name in live or not _crashed(
                    domain.protocols[parent_name]
                ):
                    parent_entry = domain.protocols[parent_name].fib.get(group)
                    if parent_entry is None or not any(
                        map(owns, parent_entry.children)
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
                    or group in protocol._quitting
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
        quit_timers = getattr(protocol, "_quit_timers", {})
        for group in protocol._quitting:
            timer = quit_timers.get(group)
            if timer is None or not timer.pending:
                findings.append(
                    Finding(
                        "error",
                        name,
                        group,
                        "quit in progress with no live retry timer",
                    )
                )

    findings.extend(_check_live_loops(domain, live))
    return findings


def _check_live_loops(domain, live) -> List[Finding]:
    """Parent-pointer loop detection restricted to live routers.

    ``live`` holds the live routers with state.  Walks start only
    there — a router with no entry for the group ends its own walk at
    once — and stop where an earlier walk already went on to a root.
    A walk that runs into a crashed router is reported at that router.
    """
    out: List[Finding] = []
    groups = {
        entry.group for protocol in live.values() for entry in protocol.fib
    }
    for group in sorted(groups, key=int):
        rooted: Set[str] = set()
        for start in live:
            seen = set()
            current = start
            while (
                current is not None
                and current not in seen
                and current not in rooted
            ):
                seen.add(current)
                protocol = live.get(current)
                if protocol is None and _crashed(domain.protocols[current]):
                    break
                entry = protocol.fib.get(group) if protocol is not None else None
                if entry is None or not entry.has_parent:
                    current = None
                else:
                    current = domain.router_of(entry.parent_address)
            if current is not None and current in seen:
                out.append(
                    Finding(
                        "error", current, group, "parent pointers form a loop"
                    )
                )
                break
            rooted |= seen
    return out


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
    ``grace`` seconds.  ``grace`` defaults to the slowest legitimate
    repair path of the domain's timer profile: child-assert expiry plus
    one assert interval plus a join retransmission.

    Usage::

        auditor = InvariantAuditor(domain, interval=0.5)
        auditor.start()
        net.run(until=...)          # raises InvariantViolation (and stops)
        auditor.assert_clean()      # final end-of-run check
    """

    def __init__(
        self,
        domain,
        interval: float = 1.0,
        grace: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.domain = domain
        self.interval = interval
        if grace is None:
            timers = next(iter(domain.protocols.values())).timers
            grace = (
                timers.child_assert_expire
                + timers.child_assert_interval
                + timers.pend_join_interval
            )
        self.grace = grace
        self.checks_run = 0
        self._first_seen: Dict[Tuple, float] = {}
        self._timer = None
        self._running = False
        domain.network.scheduler.register(self)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._timer = self.domain.network.scheduler.call_later(
            self.interval, self._tick
        )

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

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

    def assert_clean(self) -> None:
        """Final check: raise on any overdue finding right now."""
        overdue = self.check_now()
        if overdue:
            self._fail(overdue)

    def event_trace(self) -> List[str]:
        """The domain's 40 most recent protocol events, merged and sorted."""
        events = [
            (event.time, name, event)
            for name, protocol in self.domain.protocols.items()
            for event in protocol.events
        ]
        events.sort(key=lambda item: item[0])
        return [
            f"t={time:.3f} {name} {event.kind} group={event.group}"
            + (f" {event.detail}" if event.detail else "")
            for time, name, event in events[-40:]
        ]

    def _tick(self) -> None:
        if not self._running:
            return
        overdue = self.check_now()
        if overdue:
            self._fail(overdue)
        if self._running:
            self._timer = self.domain.network.scheduler.call_later(
                self.interval, self._tick
            )

    def _fail(self, overdue: List[Finding]) -> None:
        violation = InvariantViolation(overdue, self.event_trace())
        self.stop()
        raise violation
