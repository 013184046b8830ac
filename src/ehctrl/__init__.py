"""Decentralized random-access scheduling for wireless control loops whose
sensors run on harvested energy.

The package converts per-plant Lyapunov decrease-rate targets into required
packet-reception probabilities, runs a per-node stochastic primal-dual
scheduling policy over a shared collision channel, and simulates the coupled
plant/channel/battery system with full seed determinism.
"""

__version__ = "0.1.0"
