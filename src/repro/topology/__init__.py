"""Topology construction: builders, spec figures, random generators."""

from repro.topology.builder import Network
from repro.topology.figures import build_figure1, build_figure5_loop
from repro.topology.generators import (
    barabasi_albert_network,
    grid_network,
    line_network,
    transit_stub_network,
    waxman_network,
)

__all__ = [
    "Network",
    "barabasi_albert_network",
    "build_figure1",
    "build_figure5_loop",
    "grid_network",
    "line_network",
    "transit_stub_network",
    "waxman_network",
]
