"""Live run observatory: streaming telemetry while the simulation runs.

Everything in ``repro.obs`` so far is post-hoc — metrics, samplers,
flights, and reports are consumable only after ``run()`` returns. The
scale workloads (the 200-AS internet zoo, the 100k-user hybrid traffic
plane) run for minutes of wall-clock as opaque black boxes. This module
is the window into a run *while it executes*:

* :class:`LiveMonitor` — the telemetry bus. Installed on a
  :class:`~repro.sim.engine.Simulator` (directly, or implicitly through
  ``Experiment.run`` when ``REPRO_LIVE_FEED`` is set — see
  :func:`repro.obs.archive.attach_from_env`), it emits two kinds of
  output:

  - a **deterministic JSONL feed**: one snapshot per ``interval``
    sim-seconds, keyed by sim-time + event-count and containing only
    simulation state (clock, pending events, registered health probes).
    No wall-clock value is ever persisted, so a same-seed run produces
    a byte-identical feed — the feed is itself a replayable artifact.
  - a **TTY status line**: wall-clock-cadenced progress (sim-time vs
    wall-time rate, events/sec, ETA to ``until``), refreshed from an
    engine-loop hook so it keeps updating even when sim-time stalls.
    Wall-clock numbers appear *only* here, never in the feed.

* :class:`Watchdog` and friends — health alarms riding the same bus:
  :class:`StallWatchdog` (no sim-time progress within a wall-clock
  budget), :class:`LivelockWatchdog` (event storm with sim-time
  stagnation), :class:`RateWatchdog` (any sim-rate explosion — solver
  re-solve thrash, BGP update/RIB-churn oscillation). A firing watchdog
  can ``log``, ``mark`` the run (the alarm lands in
  :meth:`LiveMonitor.as_dict`, hence in experiment reports), or
  ``abort`` — stop the simulator and write a diagnostic snapshot.

The wall-clock side hooks the engine through ``Simulator._live_hook``,
polled between events: a single ``is not None`` test when
nothing is installed, and a counter-strided ``perf_counter`` check when
a monitor is. Sim-time stalls (a livelocked same-timestamp storm) are
exactly the case a periodic sim event can never observe — the hook can.

Determinism contract (test-enforced): with no monitor installed, golden
traces are byte-identical to pre-live runs; with a monitor installed,
the feed for a same-seed run is byte-identical across invocations and
across machines of any speed, because snapshot *selection* (sim-time
cadence) and snapshot *content* (sim state only) are both wall-free.

``python -m repro.obs fig8 OUT --watch`` (``make watch``) runs the Fig-8
Abilene failover under the full observatory of :mod:`repro.obs.fig8`
with the status line on (headless automatically when either stream is
not a TTY).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.archive import note_artifact

__all__ = [
    "Alarm",
    "JsonlFeed",
    "LiveMonitor",
    "LivelockWatchdog",
    "RateWatchdog",
    "StallWatchdog",
    "Watchdog",
]

#: Feed schema identifier written as the first line of every feed.
FEED_SCHEMA = "repro.live/1"

#: Watchdog actions, in escalation order.
ACTIONS = ("log", "mark", "abort")


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


class Alarm:
    """One watchdog firing, keyed by sim-time + event-count.

    Wall-clock decides *when* a watchdog looks, but the alarm record
    itself carries only simulation coordinates, so marked reports stay
    deterministic given the same firing.
    """

    __slots__ = ("watchdog", "sim_t", "events", "detail", "action")

    def __init__(self, watchdog: str, sim_t: float, events: int,
                 detail: str, action: str):
        self.watchdog = watchdog
        self.sim_t = sim_t
        self.events = events
        self.detail = detail
        self.action = action

    def as_dict(self) -> Dict[str, Any]:
        return {
            "watchdog": self.watchdog,
            "sim_t": self.sim_t,
            "events": self.events,
            "detail": self.detail,
            "action": self.action,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Alarm {self.watchdog} t={self.sim_t:.3f} "
                f"{self.action}: {self.detail}>")


class Watchdog:
    """Base class: examine successive wall-clock polls of a run.

    Subclasses implement :meth:`check`, returning a detail string when
    unhealthy (``None`` otherwise). ``action`` says what the monitor
    does with a firing: ``"log"`` (status/stderr line), ``"mark"``
    (recorded in ``alarms`` / the report section), ``"abort"`` (mark,
    write a diagnostic snapshot, and stop the simulator). A watchdog
    re-arms only after the condition clears, so a persistent pathology
    raises one alarm, not one per poll.
    """

    name = "watchdog"

    def __init__(self, action: str = "mark"):
        if action not in ACTIONS:
            raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
        self.action = action
        self.fired = False

    def check(self, monitor: "LiveMonitor", wall_now: float) -> Optional[str]:
        raise NotImplementedError

    def poll(self, monitor: "LiveMonitor", wall_now: float) -> Optional[str]:
        detail = self.check(monitor, wall_now)
        if detail is None:
            self.fired = False
            return None
        if self.fired:
            return None  # still unhealthy; already alarmed
        self.fired = True
        return detail


class StallWatchdog(Watchdog):
    """No sim-time progress within a wall-clock budget.

    Catches the run that is wedged — an event callback spinning, a
    pathological same-timestamp loop — which a sim-clock sampler can
    never see because sim events stop flowing.
    """

    name = "stall"

    def __init__(self, budget_s: float = 30.0, action: str = "abort"):
        super().__init__(action)
        if budget_s <= 0:
            raise ValueError(f"budget_s must be positive, got {budget_s!r}")
        self.budget_s = budget_s
        self._last_sim_t: Optional[float] = None
        self._progress_wall = 0.0

    def check(self, monitor: "LiveMonitor", wall_now: float) -> Optional[str]:
        sim_t = monitor.sim.now
        if self._last_sim_t is None or sim_t > self._last_sim_t:
            self._last_sim_t = sim_t
            self._progress_wall = wall_now
            return None
        stalled = wall_now - self._progress_wall
        if stalled < self.budget_s:
            return None
        return (f"no sim-time progress for {stalled:.1f}s of wall clock "
                f"(sim stuck at t={sim_t:.6f})")


class LivelockWatchdog(Watchdog):
    """Event storm with sim-time stagnation.

    Fires when at least ``window_events`` new events were scheduled
    between two polls while sim-time advanced less than
    ``min_sim_advance`` — the signature of a self-feeding ``call_soon``
    or zero-delay timer loop that will never terminate on its own.
    """

    name = "livelock"

    def __init__(self, window_events: int = 1_000_000,
                 min_sim_advance: float = 1e-6, action: str = "abort"):
        super().__init__(action)
        if window_events <= 0:
            raise ValueError(
                f"window_events must be positive, got {window_events!r}"
            )
        self.window_events = window_events
        self.min_sim_advance = min_sim_advance
        self._last: Optional[tuple] = None

    def check(self, monitor: "LiveMonitor", wall_now: float) -> Optional[str]:
        sim = monitor.sim
        current = (sim.now, sim._seq)
        last = self._last
        self._last = current
        if last is None:
            return None
        advanced = current[0] - last[0]
        scheduled = current[1] - last[1]
        if scheduled < self.window_events or advanced >= self.min_sim_advance:
            return None
        return (f"{scheduled} events scheduled while sim-time advanced "
                f"{advanced:.9f}s (livelock at t={current[0]:.6f})")


class RateWatchdog(Watchdog):
    """A counter growing faster than ``max_per_sim_s`` per sim-second.

    The generic alarm for control-plane pathologies that still make
    sim-time progress: traffic-solver re-solve thrash, BGP update storms
    or RIB-churn oscillation. ``fn`` reads the counter (a plane stat, a
    ``registry.sum_values`` closure, any callable); the rate is measured
    over successive polls and only sustained excess (``sustain``
    consecutive hot polls) fires, so a convergence burst does not.
    """

    def __init__(self, name: str, fn: Callable[[], float],
                 max_per_sim_s: float, sustain: int = 2,
                 action: str = "mark"):
        super().__init__(action)
        if max_per_sim_s <= 0:
            raise ValueError(
                f"max_per_sim_s must be positive, got {max_per_sim_s!r}"
            )
        if sustain < 1:
            raise ValueError(f"sustain must be >= 1, got {sustain!r}")
        self.name = name
        self.fn = fn
        self.max_per_sim_s = max_per_sim_s
        self.sustain = sustain
        self._last: Optional[tuple] = None
        self._hot = 0

    def check(self, monitor: "LiveMonitor", wall_now: float) -> Optional[str]:
        sim_t = monitor.sim.now
        value = float(self.fn())
        last = self._last
        self._last = (sim_t, value)
        if last is None or sim_t <= last[0]:
            return None
        rate = (value - last[1]) / (sim_t - last[0])
        if rate <= self.max_per_sim_s:
            self._hot = 0
            return None
        self._hot += 1
        if self._hot < self.sustain:
            return None
        return (f"{self.name} rate {rate:,.0f}/sim-s exceeds "
                f"{self.max_per_sim_s:,.0f}/sim-s "
                f"({self._hot} consecutive polls)")


def bgp_oscillation_watchdog(registry, max_changes_per_sim_s: float = 500.0,
                             sustain: int = 3,
                             action: str = "mark") -> RateWatchdog:
    """Route-oscillation alarm: sustained ``rib.changes`` churn across
    all routers long after any fault should have converged."""
    return RateWatchdog(
        "rib.changes",
        lambda: registry.sum_values("rib.changes"),
        max_changes_per_sim_s,
        sustain=sustain,
        action=action,
    )


class LiveMonitor:
    """The live telemetry bus of one simulator.

    Parameters
    ----------
    sim:
        The simulator to observe.
    interval:
        Sim-seconds between deterministic feed snapshots (a native
        periodic event, so snapshot times replay exactly).
    wall_interval:
        Wall-seconds between status-line refreshes and watchdog polls.
    feed:
        Path or file-like for the JSONL feed, or ``None`` for no feed.
    status:
        Stream for the TTY status line (e.g. ``sys.stderr``), or
        ``None`` for headless.
    until:
        The run's target sim-time, for the ETA estimate. Updated by
        :func:`repro.obs.archive.attach_from_env` on every
        ``run(until=...)``.
    clock:
        Wall-clock source (tests inject a synthetic one).
    poll_stride:
        Outer dispatch passes between engine-hook clock checks.
    """

    def __init__(
        self,
        sim,
        interval: float = 1.0,
        wall_interval: float = 0.5,
        feed=None,
        status=None,
        name: str = "live",
        until: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
        poll_stride: int = 2048,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if wall_interval < 0:
            raise ValueError(
                f"wall_interval must be >= 0, got {wall_interval!r}"
            )
        if poll_stride < 1:
            raise ValueError(f"poll_stride must be >= 1, got {poll_stride!r}")
        self.sim = sim
        self.interval = interval
        self.wall_interval = wall_interval
        self.name = name
        self.until = until
        self.poll_stride = poll_stride
        self._clock = clock
        self._status = status
        # \r-rewriting is for terminals only. When the status target is
        # not a TTY (piped --watch output, redirected logs) the live
        # refreshes are suppressed entirely and only final
        # newline-terminated lines are written, so logs never collect
        # carriage returns or erase sequences.
        try:
            self._status_tty = bool(status is not None and status.isatty())
        except (AttributeError, ValueError):
            self._status_tty = False
        self.feed: Optional[JsonlFeed] = None
        self._feed_target = feed
        self._probes: List[tuple] = []  # (key, fn), insertion-ordered
        self._probe_keys: set = set()
        self.watchdogs: List[Watchdog] = []
        self.alarms: List[Alarm] = []
        self.snapshots = 0
        self.status_refreshes = 0
        self.diagnostic: Optional[Dict[str, Any]] = None
        self._handle = None
        self._installed = False
        # Pinned bound method: attribute access would create a fresh
        # object each time, breaking the identity check in stop().
        self._hook = self._wall_poll
        # Wall-rate state for the status line (never persisted).
        self._wall_start: Optional[float] = None
        self._last_wall: Optional[float] = None
        self._last_sim_t = 0.0
        self._last_events = 0
        self._sim_rate = 0.0  # EWMA sim-seconds per wall-second
        self._event_rate = 0.0  # EWMA events per wall-second

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
        the label subset (e.g. total queue depth over all routers)."""
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

    def watch_queues(self) -> "LiveMonitor":
        """Probe total Click queue depth across the world."""
        return self.watch_metric("queue_depth", "click.queue.depth")

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

    def add_watchdog(self, watchdog: Watchdog) -> "LiveMonitor":
        self.watchdogs.append(watchdog)
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "LiveMonitor":
        """Open the feed, start the sim-clock snapshot series, and hook
        the engine's dispatch loop for wall-clock work. Idempotent."""
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
            if self.feed.path:
                note_artifact(self.sim, self.feed.path, "live_feed")
        metrics = self.sim.metrics
        if metrics.enabled:
            labels = dict(monitor=self.name)
            metrics.counter("live.snapshots", fn=lambda: self.snapshots,
                            **labels)
            metrics.counter("live.alarms", fn=lambda: len(self.alarms),
                            **labels)
        self._tick()  # anchor snapshot at install time
        self._handle = self.sim.schedule_periodic(self.interval, self._tick)
        self.sim._live_hook = self._hook
        return self

    def stop(self, final: bool = True) -> "LiveMonitor":
        """Stop snapshots and unhook the engine; with ``final`` take one
        last snapshot so the feed covers the full run."""
        if not self._installed:
            return self
        self._installed = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if self.sim._live_hook is self._hook:
            self.sim._live_hook = None
        if final:
            self._tick()
        if self._status is not None:
            self._refresh_status(self._clock(), newline=True)
        if self.feed is not None:
            self.feed.close()
        return self

    # ------------------------------------------------------------------
    # Deterministic side: snapshots
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
    # Wall-clock side: status + watchdogs (never persisted to the feed)
    # ------------------------------------------------------------------
    def _wall_poll(self) -> int:
        """Engine-hook callback: refresh the status line and run the
        watchdogs if ``wall_interval`` has elapsed. Returns the number
        of dispatch passes until the engine polls again."""
        wall_now = self._clock()
        if self._wall_start is None:
            self._wall_start = wall_now
            self._last_wall = wall_now
            self._last_sim_t = self.sim.now
            self._last_events = self.sim._seq
            return self.poll_stride
        if wall_now - self._last_wall >= self.wall_interval:
            self._measure(wall_now)
            for watchdog in self.watchdogs:
                detail = watchdog.poll(self, wall_now)
                if detail is not None:
                    self._alarm(watchdog, detail)
            if self._status is not None:
                self._refresh_status(wall_now)
        return self.poll_stride

    def _measure(self, wall_now: float) -> None:
        dt = wall_now - self._last_wall
        if dt > 0:
            sim_rate = (self.sim.now - self._last_sim_t) / dt
            event_rate = (self.sim._seq - self._last_events) / dt
            alpha = 0.3
            if self._sim_rate == 0.0 and self._event_rate == 0.0:
                self._sim_rate = sim_rate
                self._event_rate = event_rate
            else:
                self._sim_rate += alpha * (sim_rate - self._sim_rate)
                self._event_rate += alpha * (event_rate - self._event_rate)
        self._last_wall = wall_now
        self._last_sim_t = self.sim.now
        self._last_events = self.sim._seq

    def status_line(self, wall_now: Optional[float] = None) -> str:
        """The human progress line (wall-clock numbers allowed here)."""
        sim = self.sim
        wall_now = self._clock() if wall_now is None else wall_now
        wall = wall_now - (self._wall_start or wall_now)
        parts = [
            f"[{self.name}]",
            f"t={sim.now:.1f}s",
            f"wall={wall:.1f}s",
            f"{self._sim_rate:.2f}x" if self._sim_rate else "--x",
            f"{self._event_rate:,.0f} ev/s",
            f"pending={sim.pending}",
        ]
        if self.until is not None and self._sim_rate > 0:
            remaining = max(0.0, self.until - sim.now)
            parts.append(f"eta={remaining / self._sim_rate:.1f}s")
        if self.alarms:
            parts.append(f"alarms={len(self.alarms)}")
        return " ".join(parts)

    def _refresh_status(self, wall_now: float, newline: bool = False) -> None:
        if not self._status_tty:
            # Non-TTY target: no in-place refreshes, only the final
            # (newline) line, as a plain log line.
            if not newline:
                return
            self.status_refreshes += 1
            self._status.write(self.status_line(wall_now) + "\n")
            self._status.flush()
            return
        self.status_refreshes += 1
        line = self.status_line(wall_now)
        end = "\n" if newline else ""
        self._status.write("\r\x1b[2K" + line + end)
        self._status.flush()

    # ------------------------------------------------------------------
    # Alarms
    # ------------------------------------------------------------------
    def _alarm(self, watchdog: Watchdog, detail: str) -> None:
        alarm = Alarm(watchdog.name, self.sim.now, self.sim._seq, detail,
                      watchdog.action)
        self.alarms.append(alarm)
        stream = self._status or sys.stderr
        stream.write(f"\n[{self.name}] ALARM {watchdog.name} "
                     f"({watchdog.action}): {detail}\n")
        stream.flush()
        if watchdog.action == "abort":
            self.diagnostic = {
                "alarm": alarm.as_dict(),
                "snapshot": self.snapshot(),
                "alarms": [a.as_dict() for a in self.alarms],
            }
            if self.feed is not None and self.feed.path:
                diag_path = str(self.feed.path) + ".diag.json"
                with open(diag_path, "w") as handle:
                    json.dump(self.diagnostic, handle, sort_keys=True,
                              indent=2)
                    handle.write("\n")
                note_artifact(self.sim, diag_path, "json")
            self.sim.stop()

    # ------------------------------------------------------------------
    # Report integration
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """The ``live`` section of an experiment report: deterministic
        snapshot accounting plus any (sim-keyed) alarms."""
        return {
            "name": self.name,
            "interval": self.interval,
            "snapshots": self.snapshots,
            "alarms": [a.as_dict() for a in self.alarms],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LiveMonitor {self.name} snapshots={self.snapshots} "
                f"alarms={len(self.alarms)}>")
