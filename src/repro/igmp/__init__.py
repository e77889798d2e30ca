"""IGMP simulation.

The CBT spec assumes IGMPv3 runs between hosts and routers on every
LAN (spec §1): group membership reports trigger joins, leaves trigger
group-specific queries and eventually quits, and the (proposed) IGMPv3
RP/Core-Report carries the ``<core, group>`` mapping from hosts to
their local CBT designated router.  This package implements the
message formats (including the appendix's RP/Core-Report), the host
membership state machine, and the router-side querier election and
membership database.
"""
