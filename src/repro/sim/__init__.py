"""Discrete-event simulation substrate.

The paper evaluates the DFC subsystem "via large-scale simulation" on 585 to
10,000 simulated machines (section 5).  This package is that simulator:

- :mod:`repro.sim.events` -- deterministic discrete-event scheduler.
- :mod:`repro.sim.network` -- message-passing network with per-machine
  sent/received counters, latency, loss, and failure awareness (flat, or
  over a site/rack topology).
- :mod:`repro.sim.machine` -- base class for simulated machines.
- :mod:`repro.sim.failure` -- failure injection (Fig. 8 and churn).
- :mod:`repro.sim.metrics` -- counters, CDFs, coefficient of variation.
- :mod:`repro.sim.rng` -- seeded, stream-split deterministic randomness.
"""

from repro.sim.events import EventScheduler
from repro.sim.machine import SimMachine
from repro.sim.metrics import Cdf, coefficient_of_variation
from repro.sim.network import Message, Network, TopologyNetwork
from repro.sim.rng import SeedSequence

__all__ = [
    "Cdf",
    "EventScheduler",
    "Message",
    "Network",
    "SeedSequence",
    "SimMachine",
    "TopologyNetwork",
    "coefficient_of_variation",
]
