"""Live run observatory: streaming telemetry while the simulation runs.

Metrics, samplers, flights and reports are consumable only after
``run()`` returns; the scale workloads (the 200-AS internet zoo, the
100k-user hybrid traffic plane) run for minutes. This module is the
window into a run *while it executes*.

:class:`LiveMonitor` is a :class:`~repro.obs.sampler.PeriodicSampler`
that also writes each snapshot to a JSONL feed: one row per
``interval`` sim-seconds, keyed by sim-time + event-count and holding
only simulation state (clock, pending events, registered probes). The
feed is line-buffered, so ``tail -f`` on it is the progress view.

Determinism holds by construction: the snapshots are the sampler's
ordinary periodic sim events, which read no host clock and write no
trace record, and the engine's dispatch loop polls nothing for the
monitor, so a monitored run replays an unmonitored one's trace and a
same-seed feed is byte-identical on machines of any speed.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.obs.export import _ensure_parent
from repro.obs.sampler import PeriodicSampler

__all__ = ["LiveMonitor"]

#: Feed schema identifier written as the first line of every feed.
FEED_SCHEMA = "repro.live/1"


class LiveMonitor(PeriodicSampler):
    """The live telemetry bus of one simulator.

    Parameters
    ----------
    sim:
        The simulator to observe.
    interval:
        Sim-seconds between feed snapshots.
    feed:
        Path of the JSONL feed: one JSON object per line, sorted keys,
        floats via ``repr`` — the same rules as :mod:`repro.obs.export`,
        so a same-seed run writes a byte-identical file.
    name:
        The monitor's label in the feed header, the report and the
        ``live.snapshots`` counter.
    """

    def __init__(self, sim, interval: float = 1.0, *, feed: str,
                 name: str = "live"):
        super().__init__(sim, interval, name=name)
        self.path = feed
        self.snapshots = 0
        self._feed = None

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def watch_metric(self, key: str, name: str, **labels) -> "LiveMonitor":
        """Probe the summed value of registry series ``name`` matching
        the label subset (e.g. total run-queue depth over all nodes)."""
        metrics = self.sim.metrics
        return self.watch(key, fn=lambda: metrics.sum_values(name, **labels))

    def watch_engine(self) -> "LiveMonitor":
        """Probe the engine's heap: entries held and how many of them
        are cancelled corpses awaiting compaction — deterministic for a
        given seed. (Live events pending and events scheduled are in
        every snapshot already.)"""
        sim = self.sim
        self.watch("sim.heap_entries", fn=lambda: len(sim._heap))
        self.watch("sim.heap_cancelled", fn=lambda: sim._heap_cancelled)
        return self

    def watch_cpu(self) -> "LiveMonitor":
        """Probe total CPU-scheduler run-queue backlog."""
        return self.watch_metric("cpu_backlog", "cpu.runq_depth")

    def watch_convergence(self, tracker) -> "LiveMonitor":
        """Probe a :class:`ConvergenceTracker`: episode count and the
        fraction of episodes that have reached route-stable."""
        def fraction() -> float:
            episodes = tracker.episodes
            if not episodes:
                return 1.0
            done = sum(1 for e in episodes if e.convergence_s is not None)
            return done / len(episodes)

        self.watch("convergence.episodes", fn=lambda: len(tracker.episodes))
        self.watch("convergence.fraction", fn=fraction)
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "LiveMonitor":
        """Start the monitor unless it is running already."""
        return self if self._handle is not None else self.start()

    def start(self) -> "LiveMonitor":
        """Open the feed, write its header and start the snapshots (the
        first one now)."""
        if self._handle is not None:
            raise RuntimeError(f"monitor {self.name!r} already started")
        _ensure_parent(self.path)
        self._feed = open(self.path, "w", buffering=1)
        self._emit({
            "schema": FEED_SCHEMA,
            "name": self.name,
            "interval": self.interval,
            "seed": self.sim.seed,
        })
        metrics = self.sim.metrics
        if metrics.enabled:
            metrics.counter("live.snapshots", fn=lambda: self.snapshots,
                            monitor=self.name)
        return super().start()

    def stop(self, final: bool = True) -> "LiveMonitor":
        """Stop snapshots; with ``final`` take one last snapshot so the
        feed covers the full run. Then close the feed."""
        if self._handle is None:
            return self
        super().stop(final)
        self._feed.close()
        return self

    def _tick(self) -> None:
        super()._tick()
        sim = self.sim
        self._emit({
            "i": self.snapshots,
            "t": sim.now,
            "events": sim._seq,
            "pending": sim.pending,
            "probes": {key: probe.points[-1][1]
                       for key, probe in self._probes.items()},
        })
        self.snapshots += 1

    def _emit(self, row: Dict[str, Any]) -> None:
        self._feed.write(json.dumps(row, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    # Report integration
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """The ``live`` section of an experiment report."""
        return {
            "name": self.name,
            "interval": self.interval,
            "snapshots": self.snapshots,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LiveMonitor {self.name} snapshots={self.snapshots}>"
