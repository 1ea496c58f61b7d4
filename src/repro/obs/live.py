"""Live run observatory: streaming telemetry while the simulation runs.

Metrics, samplers, flights and reports are consumable only after
``run()`` returns; the scale workloads (the 200-AS internet zoo, the
100k-user hybrid traffic plane) run for minutes. This module is the
window into a run *while it executes*.

:class:`LiveMonitor` is the telemetry bus. Installed on a
:class:`~repro.sim.engine.Simulator`, it writes a JSONL feed: one
snapshot per ``interval`` sim-seconds, keyed by sim-time + event-count
and holding only simulation state (clock, pending events, registered
probes). The feed is line-buffered, so ``tail -f`` on it is the
progress view.

Determinism holds by construction: the snapshots are ordinary periodic
sim events that read no host clock and write no trace record, and the
engine's dispatch loop polls nothing for the monitor, so a monitored
run replays an unmonitored one's trace and a same-seed feed is
byte-identical on machines of any speed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional

__all__ = ["JsonlFeed", "LiveMonitor"]

#: Feed schema identifier written as the first line of every feed.
FEED_SCHEMA = "repro.live/1"


class JsonlFeed:
    """Deterministic JSONL sink for live snapshots.

    One JSON object per line, sorted keys, floats via ``repr`` (the
    shortest round-trip form ``json`` emits natively) — the same rules
    as :mod:`repro.obs.export`, so a same-seed run writes a
    byte-identical file. Accepts a path (opened line-buffered so a
    ``tail -f`` watcher sees snapshots as they happen) or any object
    with ``write``.
    """

    def __init__(self, target):
        if hasattr(target, "write"):
            self._handle = target
            self._owns = False
            self.path = getattr(target, "name", None)
        else:
            parent = os.path.dirname(os.path.abspath(target))
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._handle = open(target, "w", buffering=1)
            self._owns = True
            self.path = target
        self.lines = 0

    def emit(self, row: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        self.lines += 1

    def close(self) -> None:
        if self._owns and self._handle is not None:
            self._handle.close()
            self._handle = None


class LiveMonitor:
    """The live telemetry bus of one simulator.

    Parameters
    ----------
    sim:
        The simulator to observe.
    interval:
        Sim-seconds between deterministic feed snapshots (a native
        periodic event, so snapshot times replay exactly).
    feed:
        Path or file-like for the JSONL feed, or ``None`` for no feed.
    name:
        The monitor's label in the feed header, the report and the
        ``live.snapshots`` counter.
    """

    def __init__(
        self,
        sim,
        interval: float = 1.0,
        feed=None,
        name: str = "live",
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = interval
        self.name = name
        self.feed: Optional[JsonlFeed] = None
        self._feed_target = feed
        self._probes: List[tuple] = []  # (key, fn), insertion-ordered
        self._probe_keys: set = set()
        self.snapshots = 0
        self._handle = None
        self._installed = False

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def watch(self, key: str, fn: Callable[[], Any]) -> "LiveMonitor":
        """Register a deterministic health probe; its value appears in
        every feed snapshot under ``probes[key]``."""
        if key in self._probe_keys:
            raise ValueError(f"probe {key!r} already watched")
        self._probe_keys.add(key)
        self._probes.append((key, fn))
        return self

    def watch_metric(self, key: str, name: str, **labels) -> "LiveMonitor":
        """Probe the summed value of registry series ``name`` matching
        the label subset (e.g. total run-queue depth over all nodes)."""
        metrics = self.sim.metrics
        return self.watch(key, lambda: metrics.sum_values(name, **labels))

    def watch_engine(self) -> "LiveMonitor":
        """Probe the engine's heap: entries held and how many of them
        are cancelled corpses awaiting compaction — deterministic for a
        given seed. (Live events pending and events scheduled are in
        every snapshot already.)"""
        sim = self.sim
        self.watch("sim.heap_entries", lambda: len(sim._heap))
        self.watch("sim.heap_cancelled", lambda: sim._heap_cancelled)
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

        self.watch("convergence.episodes", lambda: len(tracker.episodes))
        self.watch("convergence.fraction", fraction)
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "LiveMonitor":
        """Open the feed and start the sim-clock snapshot series.
        Idempotent."""
        if self._installed:
            return self
        self._installed = True
        if self._feed_target is not None:
            self.feed = JsonlFeed(self._feed_target)
            self.feed.emit({
                "schema": FEED_SCHEMA,
                "name": self.name,
                "interval": self.interval,
                "seed": self.sim.seed,
            })
        metrics = self.sim.metrics
        if metrics.enabled:
            metrics.counter("live.snapshots", fn=lambda: self.snapshots,
                            monitor=self.name)
        self._tick()  # anchor snapshot at install time
        self._handle = self.sim.schedule_periodic(self.interval, self._tick)
        return self

    def stop(self, final: bool = True) -> "LiveMonitor":
        """Stop snapshots; with ``final`` take one last snapshot so the
        feed covers the full run."""
        if not self._installed:
            return self
        self._installed = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if final:
            self._tick()
        if self.feed is not None:
            self.feed.close()
        return self

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The current run-health snapshot. Only simulation state:
        keyed by sim-time + event-count, probe values from sim-side
        instruments. Byte-deterministic for a same-seed run."""
        sim = self.sim
        return {
            "i": self.snapshots,
            "t": sim.now,
            "events": sim._seq,
            "pending": sim.pending,
            "probes": {key: fn() for key, fn in self._probes},
        }

    def _tick(self) -> None:
        row = self.snapshot()
        self.snapshots += 1
        if self.feed is not None:
            self.feed.emit(row)

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
