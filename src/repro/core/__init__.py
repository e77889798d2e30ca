"""The CBT protocol: the paper's primary contribution.

Implements the Core Based Trees multicast protocol as specified in
draft-ietf-idmr-cbt-spec (Ballardie et al.): shared bidirectional
delivery trees rooted at a small set of per-group core routers, built
hop-by-hop with explicit JOIN_REQUEST / JOIN_ACK exchanges, maintained
with keepalives, and torn down with QUIT_REQUEST / FLUSH_TREE.

Public entry points:

* :class:`repro.core.router.CBTProtocol` — attach to a simulated
  router to make it a CBT router (control plane + data plane).
* :class:`repro.core.bootstrap.GroupCoordinator` — stands in for the
  external <core, group> advertisement mechanism the spec assumes.
* :mod:`repro.core.messages` — byte-accurate packet codecs (spec §8).
* :mod:`repro.core.placement` — core placement strategies (the spec's
  acknowledged open problem).
"""
