"""VINI: realistic and controlled network experimentation, reproduced.

A from-scratch Python implementation of the system described in
"In VINI Veritas: Realistic and Controlled Network Experimentation"
(SIGCOMM 2006), on a deterministic simulated substrate. See README.md
for the architecture and DESIGN.md for the paper-to-code map.
"""

__version__ = "1.0.0"

from repro.core import VINI, Experiment, VirtualNetwork
from repro.faults import FaultPlan, InvariantChecker
from repro.obs import (
    ConvergenceTracker,
    ExperimentReport,
    MetricsRegistry,
    PeriodicSampler,
)

__all__ = [
    "VINI",
    "ConvergenceTracker",
    "Experiment",
    "ExperimentReport",
    "FaultPlan",
    "InvariantChecker",
    "MetricsRegistry",
    "PeriodicSampler",
    "VirtualNetwork",
    "__version__",
]
