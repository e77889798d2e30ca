"""Goal predicates for fault-directed backward search.

Each :class:`Predicate` encodes one class of oracle invariant
violation as a *goal over domain state*: the end state the backward
search (:mod:`repro.explore.backward`) tries to reach by inverting
protocol transitions.  A predicate carries three things:

* ``markers`` — the finding phrases the existing oracle
  (:mod:`repro.core.audit`, the conservation laws) emits for this
  violation class.  ``holds`` evaluates the predicate by running the
  oracle over the domain and filtering by these markers, so a
  predicate flags *exactly* the states the oracle flags — pinned by
  the soundness test in ``tests/test_backward_properties.py``.
* ``triggers`` — the control-message types named by the predicate's
  inverse-transition rules (:data:`repro.explore.backward.INVERSE_RULES`).
  The guided confirmation search branches only at decision points
  involving these types, which is what lets it reach schedule depths
  the blind forward DFS cannot afford.
* the prose ``description`` tying the goal back to the §5/§6 protocol
  machinery it stresses.

The catalogue partitions the oracle's finding space: every finding the
oracle can emit matches exactly one predicate (also pinned by the
soundness test), so a violation confirmed by replay is attributed to
one predicate without ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.audit import convergence_findings


@dataclass(frozen=True)
class Predicate:
    """One invariant-violation class expressed as a goal state."""

    name: str
    description: str
    #: Finding phrases identifying this class in oracle output.
    markers: Tuple[str, ...]
    #: Message types whose decisions the guided search branches on
    #: (derived from the predicate's inverse-transition rules).
    triggers: Tuple[str, ...]

    def select(self, findings: Sequence[str]) -> List[str]:
        """The subset of ``findings`` belonging to this predicate."""
        return [
            line
            for line in findings
            if any(marker in line for marker in self.markers)
        ]

    def matches(self, findings: Sequence[str]) -> bool:
        """True when any finding belongs to this predicate."""
        return bool(self.select(findings))

    def holds(self, domain, group, members) -> List[str]:
        """Evaluate the goal directly over domain state.

        Runs the same oracle sweep the explorer applies at the end of
        a run and keeps this predicate's findings — by construction the
        predicate can never flag a state the oracle would not.  The
        sweep holds every per-transition finding too, since it runs
        the full invariant sweep.  The ``conservation-broken``
        predicate additionally runs the telemetry conservation laws
        (its goal includes counter-level books balancing, which the
        structural oracle does not audit).
        """
        findings = [
            str(finding)
            for finding in convergence_findings(domain, group, members)
        ]
        if self.name == "conservation-broken":
            from repro.telemetry.conservation import check_conservation

            findings.extend(check_conservation(domain.network, domain))
        return self.select(findings)


#: The predicate catalogue.  Markers must stay in sync with the
#: oracle's finding texts (the soundness pin fails loudly otherwise)
#: and must be pairwise disjoint so :func:`classify` is a partition.
PREDICATES: Dict[str, Predicate] = {
    predicate.name: predicate
    for predicate in (
        Predicate(
            name="forwarding-loop",
            description=(
                "Parent pointers form a cycle (or a router lists "
                "itself as its own parent/child): the JOIN/ACK weld "
                "class — a join terminated on a descendant of its own "
                "origin and the §6.3 repair failed to unpick it."
            ),
            markers=(
                "parent pointers form a loop",
                "lists itself as parent",
                "lists itself (",
            ),
            triggers=("JOIN_REQUEST", "JOIN_ACK"),
        ),
        Predicate(
            name="member-stranded",
            description=(
                "A member LAN has no attached on-tree router: the "
                "join-establishment chain (JOIN_REQUEST hop-by-hop "
                "forwarding, JOIN_ACK parent install, §5.3 quit-abort, "
                "flush re-join) was defeated and no retry recovered."
            ),
            markers=("no attached on-tree router",),
            triggers=("JOIN_REQUEST", "JOIN_ACK", "FLUSH_TREE"),
        ),
        Predicate(
            name="non-core-root",
            description=(
                "An on-tree subtree is not rooted at a core: a "
                "QUIT/FLUSH severed an interior edge (or an ACK never "
                "installed the upstream) and the orphaned subtree's "
                "§6.1 rejoin never reached a core."
            ),
            markers=(
                "parent chain ends at non-core",
                "stranded subtree root",
            ),
            triggers=(
                "JOIN_REQUEST",
                "JOIN_ACK",
                "QUIT_REQUEST",
                "QUIT_ACK",
                "FLUSH_TREE",
            ),
        ),
        Predicate(
            name="packet-never-arrives",
            description=(
                "A joined member is served by an on-tree router that "
                "no core can reach over child pointers: every "
                "JOIN-side invariant holds (parent chain intact, LAN "
                "served), yet the downstream data path is severed — "
                "an upstream hop lost the matching child pointer, "
                "typically to a QUIT/ACK crossing a JOIN_ACK install."
            ),
            markers=("data can never arrive",),
            triggers=("JOIN_ACK", "QUIT_REQUEST", "QUIT_ACK"),
        ),
        Predicate(
            name="conservation-broken",
            description=(
                "A conservation law or state-consistency invariant is "
                "broken: transient state left behind without a live "
                "driving timer (the PR-2 stale-state class), "
                "asymmetric or dangling tree edges, duplicated LAN "
                "service, or telemetry counter books that no longer "
                "balance."
            ),
            markers=(
                "pending join",
                "quit in progress with no live retry timer",
                "orphaned FIB entry",
                "not a known CBT router",
                "does not list this router as a child",
                "holds no state for the group",
                "served by multiple on-tree routers",
                "negative in-flight",
                "pre-wire drops",
                "protocol tx",
            ),
            triggers=(
                "JOIN_REQUEST",
                "JOIN_ACK",
                "JOIN_NACK",
                "QUIT_REQUEST",
                "QUIT_ACK",
            ),
        ),
    )
}


def get_predicate(name: str) -> Predicate:
    try:
        return PREDICATES[name]
    except KeyError:
        known = ", ".join(sorted(PREDICATES))
        raise KeyError(
            f"unknown predicate {name!r}; known: {known}"
        ) from None


def classify(findings: Sequence[str]) -> Dict[str, List[str]]:
    """Partition findings by predicate; a line matching no predicate
    lands under ``"unclassified"`` and one matching several under
    ``"ambiguous"`` (the soundness pin asserts both stay empty for
    everything the oracle emits on the golden scenarios)."""
    out: Dict[str, List[str]] = {}
    for line in findings:
        owners = [
            predicate.name
            for predicate in PREDICATES.values()
            if predicate.matches([line])
        ]
        key = owners[0] if len(owners) == 1 else (
            "ambiguous" if owners else "unclassified"
        )
        out.setdefault(key, []).append(line)
    return out
