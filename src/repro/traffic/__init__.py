"""``repro.traffic`` — the hybrid fluid/packet traffic plane.

Packet-level simulation is exact but caps out around a million events
per second; "millions of users" need a different gear. This package
models background load at *flow level*: demands become max-min fair
rate shares on the same topology the packets cross
(:mod:`repro.traffic.solver`), and a coupling layer
(:mod:`repro.traffic.plane`) makes foreground packets feel the fluid —
reduced residual bandwidth, added queueing delay, congestion loss —
while the fluid sees capacity net of measured packet throughput.
Foreground flows under study stay packet-accurate; the flash crowd
behind them costs a handful of solver passes instead of billions of
packet events. Everything is seeded-deterministic, and with no plane
installed the packet path is byte-identical to a build without this
package (the golden-trace suite enforces it).
"""

from repro.traffic.flow import FluidFlow
from repro.traffic.plane import FluidTrafficPlane
from repro.traffic.solver import (
    SolveResult,
    max_min_rates,
    tcp_steady_state_cap,
)

__all__ = [
    "FluidFlow",
    "FluidTrafficPlane",
    "SolveResult",
    "max_min_rates",
    "tcp_steady_state_cap",
]
