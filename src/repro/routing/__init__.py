"""Unicast routing substrate.

CBT sits on top of an arbitrary unicast routing protocol: every join is
forwarded to the "best next hop on the path to the core" (spec §2.2).
This package provides that service via a link-state view of the
simulated topology and per-router Dijkstra, with recomputation on
failure and optional per-router cost overrides for injecting the
asymmetric-route scenarios the spec discusses (§2.6).
"""
