"""Topology construction: builders, spec figures, random generators."""
