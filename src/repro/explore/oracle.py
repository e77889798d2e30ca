"""Correctness oracles for systematic exploration.

Two strengths of check are applied at two different moments:

* :func:`transition_findings` — after every explored transition.  The
  domain is mid-convergence, so only *hard* invariants apply: state
  that is wrong at any instant, even between protocol steps.  A
  router listing itself as parent or child (the PR-2 join-weld bug
  class), transient state with no live driving timer (the PR-2 stale
  quit-retry class), and — unless a repair is legitimately in flight —
  parent-pointer loops.

* :func:`convergence_findings` — once the explored schedule has run
  out and the simulation has settled.  Here the full
  :func:`repro.core.audit.check_invariants` sweep must be clean, every
  member LAN must be served by an attached on-tree router, every
  on-tree router must reach a core by following parent pointers — the
  "tree matches unicast-route expectations" end state: the tree the
  joins built over unicast routes must actually span the members and
  root at a core — and data must be *deliverable*: every served
  member LAN must be reachable from an on-tree core by walking child
  pointers downstream, the path a data packet actually takes.  A
  member can be "served" (its router holds a FIB entry) yet
  unreachable when an upstream hop lost its child pointer — the
  packet-never-arrives goal state.

Soft conditions with legitimate transient windows (parent/child
asymmetry while a QUIT or JOIN_ACK is in flight, age bounds that need
sim time to elapse) are deliberately left to the final sweep; the
explorer's short windows would otherwise drown in false alarms.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.audit import Finding, check_invariants


def _live_protocols(domain) -> Dict[str, object]:
    return {
        name: protocol
        for name, protocol in domain.protocols.items()
        if any(interface.up for interface in protocol.router.interfaces)
    }


def transition_findings(domain, check_loops: bool = True) -> List[Finding]:
    """Hard invariants that must hold between any two events."""
    findings: List[Finding] = []
    live = _live_protocols(domain)

    groups_in_repair: Set = set()
    for protocol in live.values():
        groups_in_repair.update(protocol.rejoins)
        groups_in_repair.update(protocol.pending)

    for name, protocol in live.items():
        own = {interface.address for interface in protocol.router.interfaces}
        for entry in protocol.fib:
            if entry.has_parent and entry.parent_address in own:
                findings.append(
                    Finding("error", name, entry.group, "lists itself as parent")
                )
            for child in own & set(entry.children):
                findings.append(
                    Finding(
                        "error",
                        name,
                        entry.group,
                        f"lists itself ({child}) as a child",
                    )
                )
        for group, pend in protocol.pending.items():
            if pend.expiry_timer is None or not pend.expiry_timer.pending:
                findings.append(
                    Finding(
                        "error",
                        name,
                        group,
                        "pending join has no live expiry timer",
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

    if check_loops:
        findings.extend(
            _loop_findings(live, domain.router_of, exclude=groups_in_repair)
        )
    return findings


def _loop_findings(live, router_of, exclude) -> List[Finding]:
    """Parent-pointer loops among live routers; groups with an active
    repair (pending join / rejoin anywhere) are excluded because a §6.3
    loop may legitimately exist until detection breaks it."""
    out: List[Finding] = []
    groups = {
        entry.group
        for protocol in live.values()
        for entry in protocol.fib
        if entry.group not in exclude
    }
    for group in sorted(groups, key=int):
        for start in live:
            seen: Set[str] = set()
            current = start
            while current is not None and current not in seen:
                seen.add(current)
                protocol = live.get(current)
                if protocol is None:
                    break
                entry = protocol.fib.get(group)
                if entry is None or not entry.has_parent:
                    current = None
                else:
                    current = router_of(entry.parent_address)
            if current is not None and current in seen:
                out.append(
                    Finding("error", current, group, "parent pointers form a loop")
                )
                break
    return out


def convergence_findings(domain, group, members) -> List[Finding]:
    """End-state oracle: invariants + member service + core-rooted tree."""
    findings = list(check_invariants(domain))
    live = _live_protocols(domain)

    # Every member host's LAN must have an attached on-tree router.
    for member in members:
        host = domain.network.host(member)
        subnet = host.interface.network
        served = any(
            protocol.fib.get(group) is not None
            and any(
                interface.network == subnet
                for interface in protocol.router.interfaces
            )
            for protocol in live.values()
        )
        if not served:
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
    for name, protocol in live.items():
        if protocol.fib.get(group) is None:
            continue
        current, hops = name, 0
        while True:
            walker = live.get(current)
            if walker is None:
                break  # reached a crashed router; invariant sweep covers it
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

    findings.extend(_delivery_findings(domain, group, members, live))
    return findings


def _delivery_findings(domain, group, members, live) -> List[Finding]:
    """Members to whom data can never arrive.

    Data flows *down* the tree: a core forwards over its child
    pointers, each child over its own, until the member LAN.  The
    parent-chain check above walks the opposite direction, so it
    cannot see a hop whose parent pointer is intact but whose
    upstream's matching *child* pointer is gone — packets stop there
    while every JOIN-side invariant still holds.  Flood downstream
    from every on-tree core over child pointers and flag members
    whose serving routers are all outside the reach set.  Members
    with no serving router at all are skipped — the member-stranded
    check already owns that failure.
    """
    reachable: Set[str] = set()
    queue = [
        name
        for name, protocol in live.items()
        if protocol.is_core_for(group) and protocol.fib.get(group) is not None
    ]
    reachable.update(queue)
    while queue:
        entry = live[queue.pop()].fib.get(group)
        for child_address in entry.children:
            child = domain.router_of(child_address)
            if (
                child in live
                and child not in reachable
                and live[child].fib.get(group) is not None
            ):
                reachable.add(child)
                queue.append(child)

    findings: List[Finding] = []
    for member in sorted(members):
        host = domain.network.host(member)
        subnet = host.interface.network
        serving = [
            name
            for name, protocol in live.items()
            if protocol.fib.get(group) is not None
            and any(
                interface.network == subnet
                for interface in protocol.router.interfaces
            )
        ]
        if serving and not any(name in reachable for name in serving):
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
