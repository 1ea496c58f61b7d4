"""Deterministic discrete-event simulation substrate.

Everything in the VINI reproduction runs on top of this engine: physical
nodes, links, CPU schedulers, Click elements, routing daemons, and the
measurement tools. The engine is single-threaded and fully deterministic
for a given seed, which is what gives experiments the *controlled* half
of the paper's "realistic and controlled" goal.
"""

from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.sim.timer import PeriodicTimer, Timeout
from repro.sim.trace import TraceCollector, TraceRecord

__all__ = [
    "PeriodicTimer",
    "RandomStreams",
    "Simulator",
    "Timeout",
    "TraceCollector",
    "TraceRecord",
]
