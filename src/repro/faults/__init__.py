"""Controlled-event fault injection and runtime invariant checking.

The paper's core claim is *controlled* experimentation (Section 5.2):
inject link failures and other network events on a fixed schedule while
real routing software reroutes real traffic. This package is that
control loop for the reproduction:

* :class:`FaultPlan` — a deterministic event-schedule DSL. A plan is a
  declarative list of injections (link flaps, node crash/restart, CPU
  contention bursts, loss episodes) plus seeded-random generators, and
  installs onto an :class:`~repro.core.experiment.Experiment` or a
  :class:`~repro.core.infrastructure.VINI`. Each kind acts on one layer
  wherever it is installed: the virtual overlay (the paper's Click-level
  drops) or the physical substrate. Every firing is an ordinary engine
  event recorded in the deployment's timetable, so plans are
  reproducible per seed, composable per scenario, and serialize into
  an experiment spec (:mod:`repro.core.spec`).
* :class:`InvariantChecker` — a runtime monitor riding the trace fast
  path (``trace.wants()``-guarded per-hop records) that continuously
  verifies TTL monotonicity and forwarding-loop bounds per packet,
  packet conservation per link and queue, and RIB<->FIB consistency
  after each convergence, reporting violations with the fault event
  that triggered them.
"""

from repro.faults.plan import FaultAction, FaultPlan, UnsupportedFault
from repro.faults.invariants import InvariantChecker, Violation, walk_overlay_path

__all__ = [
    "FaultAction",
    "FaultPlan",
    "InvariantChecker",
    "UnsupportedFault",
    "Violation",
    "walk_overlay_path",
]
