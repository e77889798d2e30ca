"""Experiment harness: sweep running and table/series formatting.

Every benchmark builds a :class:`repro.harness.experiment.Experiment`,
runs a parameter sweep, and prints rows in the shape of the paper's
tables/figures; the same helpers feed EXPERIMENTS.md.
"""
