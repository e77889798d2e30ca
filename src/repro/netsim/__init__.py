"""Discrete-event network simulator substrate.

This package provides the network the CBT protocol runs on: a
deterministic discrete-event scheduler, IPv4-addressed interfaces,
multi-access subnets and point-to-point links, an IP/UDP datagram
model, and a trace facility used by tests and benchmarks.

The simulator is intentionally small and deterministic: events with
equal timestamps fire in FIFO order, and all randomness lives in the
workload generators, never in the engine.
"""
