"""Inspection and reporting tools.

Turns protocol state and the trace bus into human-readable artefacts:

* :func:`render_tree` — ASCII rendering of a group's delivery tree;
* :func:`render_topology` — inventory of a simulated network;
* :func:`event_timeline` — merged, chronological protocol event log;
* :func:`control_census` — per-router control-message table.

Used by the examples and the CLI; all functions return strings.  Packet
listings are ``repro trace --type packet``; per-link and per-message
counts are the registry's (``repro stats --match 'netsim.link.*'``).
"""

from repro.analysis.render import render_topology, render_tree
from repro.analysis.timeline import control_census, event_timeline

__all__ = [
    "control_census",
    "event_timeline",
    "render_topology",
    "render_tree",
]
