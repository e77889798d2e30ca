"""Comparison baselines from the paper's evaluation.

The SIGCOMM'93 CBT paper positions shared trees against the two
source-based families of the day:

* **DVMRP-style flood-and-prune** (`repro.baselines.dvmrp`) — a
  packet-level broadcast-and-prune engine with RPF checks, prune
  state, grafts, and periodic re-flooding; used for the state (E1)
  and control-overhead (E2) comparisons.
* **HPIM-DM-style hard-state dense mode** (`repro.baselines.hpimdm`)
  — per-(source, group) trees with reliably-synchronised,
  sequence-numbered assert elections and explicit interest state; no
  periodic re-flooding, recovery purely from neighbour-failure
  detection.  Completes the grid with the modern dense-mode design
  point and feeds the chaos recovery-latency comparison
  (`repro.harness.baseline_cell`).
* **MOSPF-style per-source shortest-path trees**
  (`repro.baselines.trees.shortest_path_tree`) — static tree
  construction used for the tree-cost (E3), delay (E4) and traffic
  concentration (E5) comparisons, alongside
  :func:`repro.baselines.trees.shared_tree` (a static model of the CBT
  shape) and the KMB Steiner heuristic the paper cites as the quality
  yardstick.
"""

from repro.baselines.dvmrp import DVMRPDomain, DVMRPProtocol
from repro.baselines.hpimdm import HPIMDMDomain, HPIMDMProtocol
from repro.baselines.pimsm import PIMSMModel, cbt_equivalent_state, pim_sm_model
from repro.baselines.trees import (
    kmb_steiner_tree,
    shared_tree,
    shortest_path_tree,
)

__all__ = [
    "DVMRPDomain",
    "DVMRPProtocol",
    "HPIMDMDomain",
    "HPIMDMProtocol",
    "PIMSMModel",
    "cbt_equivalent_state",
    "kmb_steiner_tree",
    "pim_sm_model",
    "shared_tree",
    "shortest_path_tree",
]
