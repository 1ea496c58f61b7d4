"""The per-node CPU scheduler.

This models the PlanetLab scheduling stack that Section 4.1.2 of the
paper manipulates:

* **proportional fair share** between slices (stride/CFS-style: pick the
  runnable process with the smallest virtual runtime, weighted by its
  share);
* **CPU reservations** (Sirius): a process whose recent usage is below
  its reserved fraction is scheduled ahead of ordinary fair-share
  processes;
* **real-time priority**: a runnable real-time process preempts any
  non-real-time work immediately ("a real-time process that becomes
  runnable immediately jumps to the head of the run-queue").

Work arrives as :class:`~repro.phys.process.WorkItem` chunks. Items are
executed one at a time (single CPU); an item may be preempted mid-
execution by a real-time wakeup, in which case its remainder is pushed
back to the front of its owner's queue and — like a Linux timeslice —
**resumes before any other non-real-time process is elected**. A
non-real-time wakeup therefore waits out the remainder of whatever
chunk is on the CPU. That scheduling latency — the time between a
packet waking Click and Click actually running — is exactly what
produces the jitter, loss, and throughput collapse of Tables 4–6 and
Figure 6, and real-time priority is exactly what removes it.

Elections read ``_ready``, which at every instant holds exactly the
registered processes whose queue is non-empty (cancelled items count).
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

from repro.phys.process import Process, WorkItem
from repro.sim.engine import Event, Simulator


def _order(process: Process):
    """Election order: least virtual runtime, ties to the process
    registered first."""
    return process.vruntime, process.index


class CPUScheduler:
    """Single-CPU scheduler with fair share, reservations and RT bands.

    Parameters
    ----------
    speed:
        Relative CPU speed; work costs are expressed in seconds on a
        speed-1.0 reference CPU and divided by this factor.
    ewma_tau:
        Time constant (seconds) of the usage average that backs
        reservation enforcement.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu",
        speed: float = 1.0,
        ewma_tau: float = 0.1,
        wake_bonus: float = 0.003,
    ):
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed!r}")
        self.sim = sim
        self.name = name
        self.speed = speed
        self.ewma_tau = ewma_tau
        # Sleeper credit bound (CFS-style): a process waking from idle
        # is placed at most this far before the busiest runners, so
        # interactive tasks schedule promptly but cannot bank unbounded
        # credit while idle and then monopolize the CPU.
        self.wake_bonus = wake_bonus
        # Kernel non-preemptible sections: even a real-time wakeup waits
        # up to this long for the running (non-RT) code to reach a
        # preemption point — the residual latency that keeps the
        # paper's PL-VINI rows from being perfectly jitter-free
        # (Tables 5 and 6).
        self.max_nonpreempt = 0.0003
        # Optional interactivity bonus (an O(1)-scheduler-style dynamic
        # priority): a waking process below this recent-usage fraction
        # preempts fair-share work. Default OFF (0.0): PlanetLab's
        # VServer CPU scheduler gave slices no cross-slice wakeup
        # preemption — which is exactly why even a lightly loaded Click
        # suffers the latency of Table 5. Set to e.g. 0.05 to model a
        # desktop-style interactive scheduler instead.
        self.interactive_threshold = 0.0
        self.processes: List[Process] = []
        self._ready: Set[Process] = set()
        self.busy_time = 0.0  # cumulative seconds the CPU was executing
        # The chunk on the CPU: its owner (None when idle), the item,
        # when it started, the wall seconds it takes, its completion.
        self._running: Optional[Process] = None
        self._item: Optional[WorkItem] = None
        self._started_at = self._cost = 0.0
        self._event: Optional[Event] = None
        # A non-RT process whose chunk was preempted by real-time work:
        # it owns the rest of its timeslice and resumes first.
        self._resume: Optional[Process] = None
        # Bound once: a stream is seeded from sha256(seed:name), so when
        # it is created cannot change what it draws.
        self._nonpreempt_rng = sim.rng(f"nonpreempt.{name}")
        metrics = sim.metrics
        # Per-slice scheduling latency (time from work arriving to it
        # getting the CPU): the one push instrument on this path — a
        # distribution cannot be pulled. None when metrics are off, so
        # the dispatch loop pays a single identity test.
        self._latency_hist = (
            metrics.histogram("cpu.sched_latency", cpu=self.name)
            if metrics.enabled
            else None
        )
        metrics.counter("cpu.busy_seconds", fn=lambda: self.busy_time, cpu=self.name)
        metrics.gauge(
            "cpu.runq_depth",
            fn=lambda: sum(len(p.queue) for p in self._ready),
            cpu=self.name,
        )

    # ------------------------------------------------------------------
    # Registration and wakeups
    # ------------------------------------------------------------------
    def register(self, process: Process) -> None:
        process.index = len(self.processes)
        self.processes.append(process)
        metrics = self.sim.metrics
        if metrics.enabled:
            # Disambiguate duplicate process names on one CPU so each
            # keeps its own series.
            label = process.name
            if metrics.get("cpu.process_seconds", cpu=self.name, process=label) is not None:
                label = f"{process.name}#{len(self.processes)}"
            metrics.counter(
                "cpu.process_seconds",
                fn=lambda: process.cpu_used,
                cpu=self.name,
                process=label,
            )
            process.metric_label = label

    def wake(self, process: Process) -> None:
        """A process gained work; dispatch or preempt as policy allows."""
        if len(process.queue) == 1:
            # Idle -> ready; a fair-share sleeper's credit is bounded.
            self._ready.add(process)
            if not process.realtime:
                self._clamp_wakeup(process)
        running = self._running
        if running is None:
            self._dispatch()
            return
        preempts = process.realtime or self._interactive(process)
        if preempts and not running.realtime:
            if self.max_nonpreempt > 0.0:
                delay = self._nonpreempt_rng.random() * self.max_nonpreempt
                self.sim.at(delay, self._deferred_preempt, self._event)
            else:
                self._preempt()
                self._dispatch()

    def _interactive(self, process: Process) -> bool:
        # Interactive = slept a lot recently AND woke to do a small
        # amount of work (the O(1) scheduler's sleep_avg heuristic;
        # a task that wakes with a big batch is not interactive).
        if self.interactive_threshold <= 0.0 or process.realtime:
            return False
        if len(process.queue) > 16 or process.backlog > 0.001:
            return False
        return self.usage_fraction(process) < self.interactive_threshold

    def _deferred_preempt(self, target: Event) -> None:
        """Preempt the chunk that completes at ``target`` if it is still
        on the CPU.

        If the chunk already finished, the normal completion dispatch
        has run (and will have picked the real-time work).
        """
        if self._running is not None and self._event is target:
            self._preempt()
            self._dispatch()

    def _clamp_wakeup(self, process: Process) -> None:
        floor = None
        for p in (*self._ready, self._running):
            if p is not None and p is not process and not p.realtime and (
                    floor is None or p.vruntime < floor):
                floor = p.vruntime
        if floor is not None:
            process.vruntime = max(process.vruntime, floor - self.wake_bonus)

    # ------------------------------------------------------------------
    # Usage accounting
    # ------------------------------------------------------------------
    def _decay_usage(self, process: Process) -> None:
        now = self.sim.now
        dt = now - process._usage_stamp
        if dt > 0:
            process.usage_ewma *= math.exp(-dt / self.ewma_tau)
            process._usage_stamp = now

    def _charge(self, process: Process, executed: float) -> None:
        """Account ``executed`` wall-seconds ending now to ``process``."""
        process.cpu_used += executed
        self.busy_time += executed
        process.vruntime += executed / process.share
        self._decay_usage(process)
        process.usage_ewma += executed
        process._usage_stamp = self.sim.now

    def usage_fraction(self, process: Process) -> float:
        """Recent CPU fraction used by ``process`` (EWMA over tau)."""
        self._decay_usage(process)
        return min(1.0, process.usage_ewma / self.ewma_tau)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Elect from the ready set in one pass — RT band, interactive
        band if on, preempted-slice resume, under-reservation band, then
        fair share — and put the winner's head item on the CPU.

        ``usage_fraction`` decays the average it reads, and stepwise
        decay is not associative in floats, so *which* processes are
        asked at an election is part of the result: every ready process
        with a cap, always; the interactive and reservation bands only
        once no real-time process is eligible.
        """
        ready = self._ready
        if self._running is not None or not ready:
            return
        usage, owner = self.usage_fraction, self._resume
        rt = fair = None
        drained = capped = ()
        resume = reserved = False
        least = 0.0  # fair's vruntime
        for process in ready:
            queue = process.queue
            while queue and queue[0].cancelled:
                queue.popleft()
            if not queue:
                drained += (process,)
            elif process.cpu_cap is not None and usage(process) >= process.cpu_cap:
                capped += (process,)
            elif process.realtime:
                if rt is None or _order(process) < _order(rt):
                    rt = process
            else:
                # _order(process) < _order(fair), spelt out: the one
                # comparison every workload makes per ready process.
                vruntime = process.vruntime
                if fair is None or vruntime < least or (
                        vruntime == least and process.index < fair.index):
                    fair, least = process, vruntime
                resume = resume or process is owner
                reserved = reserved or process.reservation > 0.0
        ready.difference_update(drained)
        if rt is None and fair is None:
            if capped:
                # Non-work-conserving: everyone ready is at their cap.
                # Idle until the first EWMA decays below its ceiling.
                delay = min(
                    self.ewma_tau
                    * math.log(max(usage(p) / p.cpu_cap, 1.0 + 1e-9))
                    for p in capped
                )
                self.sim.at(max(delay, 1e-6), self._dispatch)
            return
        process = rt
        if process is None and self.interactive_threshold > 0.0:
            band = [p for p in ready if p not in capped and self._interactive(p)]
            if band:
                process = min(band, key=_order)
                if owner in band:
                    self._resume = None
        if process is None:
            self._resume = None
            if resume:
                process = owner
            elif reserved:
                process = min(
                    (p for p in ready if p not in capped
                     and p.reservation > 0.0 and usage(p) < p.reservation),
                    key=_order, default=fair)
            else:
                process = fair
        item = process.queue.popleft()
        if not process.queue:
            ready.remove(process)
        if self._latency_hist is not None:
            self._latency_hist.observe(self.sim.now - item.enqueued_at)
        if item.span_packet is not None:
            # Close the flight's cpu.wait (run-queue) stage: the work is
            # now on the CPU. The stage stays open across preemption, so
            # it covers execution plus any time spent preempted.
            self.sim.flight.stage(item.span_packet, "cpu.exec", node=self.name)
        self._running, self._item = process, item
        self._started_at = self.sim.now
        self._cost = item.cost / self.speed
        self._event = self.sim.at(self._cost, self._complete)

    def _complete(self) -> None:
        process, item = self._running, self._item
        assert process is not None
        self._running = None
        self._charge(process, self._cost)
        if not item.cancelled:
            item.fn(*item.args)
        self._dispatch()

    def _preempt(self) -> None:
        """Stop the current (non-RT) item; requeue its remainder."""
        process, item = self._running, self._item
        assert process is not None
        self._running = None
        self._event.cancel()
        executed = self.sim.now - self._started_at
        self._charge(process, executed)
        remaining = self._cost - executed
        if remaining > 0 or not item.cancelled:
            leftover = WorkItem(
                max(0.0, remaining) * self.speed, item.fn, item.args,
                item.enqueued_at, item.span_packet,
            )
            leftover.cancelled = item.cancelled
            process.queue.appendleft(leftover)
            self._ready.add(process)
            if not process.realtime:
                self._resume = process

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def crash_flush(self) -> None:
        """Discard all pending work (node crash).

        The item on the CPU is cancelled (its completion event still
        fires to keep accounting sane, but its callback is suppressed),
        every queued item on every process is cancelled and dropped,
        and any preemption-resume claim is forgotten.
        """
        if self._running is not None:
            self._item.cancelled = True
        for process in self.processes:
            for item in process.queue:
                item.cancelled = True
            process.queue.clear()
        self._ready.clear()
        self._resume = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"running {self._running.name}" if self._running else "idle"
        return f"<CPUScheduler {self.name} {state} procs={len(self.processes)}>"
