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

Elections read ``_ready`` ∪ ``_fair``: each registered process whose
queue is non-empty (cancelled items count) is in exactly one of the two.
Off the CPU a *plain* process (no RT, reservation or cap) waits in the
heap ``_fair`` keyed ``(vruntime, index)``, never stale as a vruntime
moves only on the CPU and at a wake; ``_ready`` holds the others, the
preempted slice's owner and the process on the CPU with work queued.
Only a crash cancels queued work, and it empties the heap.

**Standing demand** (:attr:`CPUScheduler.standing`, a started
:class:`~repro.phys.load.CPUHog`) is plain. It costs no engine events: a
chunk put on the CPU while only such demand waits has none, and
:meth:`CPUScheduler.catch_up` completes it at the engine's horizon
(:meth:`~repro.sim.engine.Simulator.due`), in the order of an event per
chunk. A process that is not standing demand waking gives it an event.
While only standing demand waits (``_ready`` empty, no waiting entry of
``_fair`` that is not standing, no preempted slice's owner) and the
chunk was not cancelled and its hog draws a next one, ``catch_up``
rotates in one loop body: it charges the chunk, requeues it with the
draw, raises its owner to the sleeper floor of the heap top and elects
with one ``heappushpop`` (``(vruntime, index)`` keys are unique, so the
heap's layout cannot change the winner). Any other chunk it completes
goes through ``_complete``, ``wake`` and ``_dispatch``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heappushpop
from typing import List, Optional, Set, Tuple

from repro.phys.process import Process, WorkItem
from repro.sim.engine import Simulator

_INF = float("inf")
#: Time constant (seconds) of the usage average that backs reservations
#: and caps.
EWMA_TAU = 0.1
#: Sleeper credit bound (CFS-style): a process waking from idle is placed
#: at most this far before the busiest runners, so interactive tasks
#: schedule promptly but cannot bank unbounded credit while idle and then
#: monopolize the CPU. There is no interactivity band beyond it:
#: PlanetLab's VServer scheduler gave slices no cross-slice wakeup
#: preemption, which is why even a lightly loaded Click suffers the
#: latency of Table 5.
WAKE_BONUS = 0.003


class CPUScheduler:
    """Single-CPU scheduler with fair share, reservations and RT bands.

    Parameters
    ----------
    speed:
        Relative CPU speed; work costs are expressed in seconds on a
        speed-1.0 reference CPU and divided by this factor.
    """

    def __init__(self, sim: Simulator, name: str = "cpu", speed: float = 1.0):
        if not 0.0 < speed < math.inf:
            raise ValueError(f"speed must be positive and finite, got {speed!r}")
        self.sim = sim
        self.name = name
        self.speed = speed
        # Kernel non-preemptible sections: even a real-time wakeup waits
        # up to this long for the running (non-RT) code to reach a
        # preemption point — the residual latency that keeps the
        # paper's PL-VINI rows from being perfectly jitter-free
        # (Tables 5 and 6).
        self.max_nonpreempt = 0.0003
        self.processes: List[Process] = []
        self._ready: Set[Process] = set()
        self._fair: List[Tuple[float, int, Process]] = []  # (vruntime, index, process)
        self._waiting = 0  # entries of _fair that are not standing demand
        self.busy_time = 0.0  # cumulative seconds the CPU was executing
        # The chunk on the CPU: its owner (None when idle), the item,
        # when it started, the wall seconds it takes, its completion.
        self._running: Optional[Process] = None
        self._item: Optional[WorkItem] = None
        self._started_at = self._cost = self._end = 0.0
        self._event: Optional[list] = None
        # The mark of a chunk whose end catch_up completes, else None.
        self._mark: Optional[int] = None
        # Set while a completed item's callback runs: its wakes queue, and
        # _complete elects once the callback has queued all its work.
        self._held = False
        # Plain fair-share processes whose demand stands (CPUHog).
        self.standing: Set[Process] = set()
        sim.catch_ups.append(self.catch_up)
        # A non-RT process whose chunk was preempted by real-time work:
        # it owns the rest of its timeslice and resumes first.
        self._resume: Optional[Process] = None
        # Bound once: a stream is seeded from sha256(seed:name), so when
        # it is created cannot change what it draws.
        self._nonpreempt_rng = sim.rng(f"nonpreempt.{name}")
        metrics = sim.metrics
        metrics.counter("cpu.busy_seconds", fn=lambda: self.busy_time, cpu=self.name)
        # Every process with queued work waits in _ready or _fair.
        metrics.gauge("cpu.runq_depth", fn=lambda: sum(
            len(p.queue) for p in self.processes), cpu=self.name)

    # ------------------------------------------------------------------
    # Registration and wakeups
    # ------------------------------------------------------------------
    def register(self, process: Process) -> None:
        process.index = len(self.processes)
        process.plain = not (process.realtime or process.reservation or process.cpu_cap)
        self.processes.append(process)
        metrics = self.sim.metrics
        # Disambiguate duplicate process names on one CPU so each keeps
        # its own series.
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
        running = self._running
        if len(process.queue) == 1:
            ready, fair = self._ready, self._fair
            if running is None and not (ready or fair or self._held) and (
                    process.plain or process.realtime and process.cpu_cap is None):
                # Alone at an idle CPU, elected by a scan that reads no usage.
                if not process.realtime:
                    self._resume = None
                self._run(process, process.queue.popleft())
                return
            # Idle -> ready; a fair-share sleeper's credit is bounded:
            # it wakes at most WAKE_BONUS before the least vruntime of
            # the other fair-share processes ready or on the CPU.
            if not process.realtime:
                floor = fair[0][0] if fair else _INF
                for p in ready:
                    if p.vruntime < floor and not p.realtime:
                        floor = p.vruntime
                if (running is not None and running.vruntime < floor
                        and not running.realtime and running is not process):
                    floor = running.vruntime
                if floor != _INF:
                    process.vruntime = max(process.vruntime, floor - WAKE_BONUS)
            # Plain, off the CPU (no _charge to come), owning no preempted slice.
            if process.plain and process is not running and process is not self._resume:
                heappush(fair, (process.vruntime, process.index, process))
                self._waiting += process not in self.standing
            else:
                ready.add(process)
        if running is None:
            if not self._held:
                self._dispatch()
            return
        if self._event is None and process not in self.standing:
            # _deferred_preempt's target and a limit to catch-ups; catch_up cancels it.
            self._event = self.sim.schedule(self._end, self.catch_up)
        if process.realtime and not running.realtime:
            if self.max_nonpreempt > 0.0:
                delay = self._nonpreempt_rng.random() * self.max_nonpreempt
                self.sim.at(delay, self._deferred_preempt, self._event)
            else:
                self._preempt()
                self._dispatch()

    def _deferred_preempt(self, target: list) -> None:
        """Preempt the chunk that completes at ``target`` if it is still
        on the CPU.

        If the chunk already finished, the normal completion dispatch
        has run (and will have picked the real-time work).
        """
        if self._running is not None and self._event is target:
            self._preempt()
            self._dispatch()

    # ------------------------------------------------------------------
    # Usage accounting
    # ------------------------------------------------------------------
    def _charge(self, process: Process, executed: float) -> None:
        """Account ``executed`` wall-seconds ending now to ``process``."""
        process.cpu_used += executed
        self.busy_time += executed
        process.vruntime += executed / process.share
        now = self.sim.now
        dt = now - process._usage_stamp
        if dt > 0:
            process.usage_ewma *= math.exp(-dt / EWMA_TAU)
        process.usage_ewma += executed
        process._usage_stamp = now

    def usage_fraction(self, process: Process) -> float:
        """Recent CPU fraction used by ``process`` (EWMA over tau),
        decayed to now."""
        now = self.sim.now
        dt = now - process._usage_stamp
        if dt > 0:
            process.usage_ewma *= math.exp(-dt / EWMA_TAU)
            process._usage_stamp = now
        return min(1.0, process.usage_ewma / EWMA_TAU)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Elect in one pass over ``_ready`` — RT band, preempted-slice
        resume, under-reservation band, then fair share, against the top
        of ``_fair`` — and put the winner's head item on the CPU.

        ``usage_fraction`` decays the average it reads, and stepwise
        decay is not associative in floats, so *which* processes are
        asked at an election is part of the result: every ready process
        with a cap, always; the reservation band only once no real-time
        process is eligible; never one in ``_fair``, which has neither.
        """
        ready, fair = self._ready, self._fair
        if self._running is not None or not (ready or fair):
            return
        if not ready:
            process, self._resume = fair[0][2], None
        else:
            owner = self._resume
            usage = self.usage_fraction
            rt = best = None
            drained = capped = ()
            resume = reserved = False
            least = 0.0  # best's vruntime
            for process in ready:
                queue = process.queue
                while queue and queue[0].cancelled:
                    queue.popleft()
                if not queue:
                    drained += (process,)
                elif process.cpu_cap is not None and usage(process) >= process.cpu_cap:
                    capped += (process,)
                elif process.realtime:
                    if rt is None or (process.vruntime, process.index) < (rt.vruntime, rt.index):
                        rt = process
                else:
                    # Election order: least vruntime, ties to the process
                    # registered first (the comparison spelt out).
                    vruntime = process.vruntime
                    if best is None or vruntime < least or (
                            vruntime == least and process.index < best.index):
                        best, least = process, vruntime
                    resume = resume or process is owner
                    reserved = reserved or process.reservation > 0.0
            ready.difference_update(drained)
            if fair and (best is None or fair[0] < (least, best.index)):
                best = fair[0][2]
            if rt is None and best is None:
                if capped:
                    # Non-work-conserving: everyone ready is at their cap.
                    # Idle until the first EWMA decays below its ceiling.
                    delay = min(
                        EWMA_TAU
                        * math.log(max(usage(p) / p.cpu_cap, 1.0 + 1e-9))
                        for p in capped
                    )
                    self.sim.at(max(delay, 1e-6), self._dispatch)
                return
            process = rt
            if process is None:
                self._resume = None
                if resume:
                    process = owner
                elif reserved:
                    process = min(
                        (p for p in ready if p not in capped
                         and p.reservation > 0.0 and usage(p) < p.reservation),
                        key=lambda p: (p.vruntime, p.index), default=best)
                else:
                    process = best
        if fair and process is fair[0][2]:
            heappop(fair)
            self._waiting -= process not in self.standing
        item = process.queue.popleft()
        if process.queue:
            ready.add(process)  # its vruntime moves on the CPU: out of _fair
        else:
            ready.discard(process)
        self._run(process, item)

    def _run(self, process: Process, item: WorkItem) -> None:
        """Put ``item`` on the CPU: the one site a chunk starts at."""
        sim = self.sim
        self._running, self._item = process, item
        self._started_at = now = sim.now
        if item.packet is not None and item.packet.span is not None:
            # Close the flight's cpu.wait (run-queue) stage: the work is
            # now on the CPU. The stage stays open across preemption, so
            # it covers execution plus any time spent preempted.
            sim.flight.stage(item.packet, "cpu.exec", node=self.name)
        self._cost = cost = item.cost / self.speed
        if process in self.standing and not self._waiting and self._ready <= self.standing:
            self._end = end = now + cost  # the float sim.at makes
            self._event, self._mark = None, sim.due(end)
        else:
            self._event, self._mark = sim.at(cost, self._complete), None

    def catch_up(self) -> Optional[Tuple[float, int]]:
        """Complete the chunks without their own event that end before
        the next pending event (:meth:`Simulator.is_due`); returns the
        end and mark of the one that does not, if any."""
        sim = self.sim
        while self._mark is not None and sim.is_due(self._end, self._mark):
            if self._event is not None:
                self.sim.cancel(self._event)
            self._mark = None
            sim.now = self._end
            # crash_flush rebinds _fair: read it per chunk.
            process, item, fair = self._running, self._item, self._fair
            # No preempted slice's owner: the chunk started with none, and
            # _preempt, which makes one, takes the chunk off the CPU. A
            # stopped hog's _next draws nothing: _complete asks it again.
            if self._ready or self._waiting or item.cancelled or (cost := item.fn()) is None:
                self._complete()
                continue
            # Only standing demand waits: _complete, wake and _dispatch
            # come to a charge, the next draw and one pick from the heap,
            # the chunk's owner raised to the sleeper floor first.
            self._charge(process, self._cost)
            item.cost = cost
            process.vruntime = max(process.vruntime, fair[0][0] - WAKE_BONUS if fair else -_INF)
            winner = heappushpop(fair, (process.vruntime, process.index, process))[2]
            process.queue.append(item)
            self._run(winner, winner.queue.popleft())
        return None if self._mark is None else (self._end, self._mark)

    def _complete(self) -> None:
        process, item = self._running, self._item
        assert process is not None
        self._running = None
        self._charge(process, self._cost)
        if process.queue and process.plain:
            # Charged, its vruntime is fixed until it runs again.
            self._ready.discard(process)
            heappush(self._fair, (process.vruntime, process.index, process))
            self._waiting += process not in self.standing
        if item.cancelled:
            pass
        elif process not in self.standing:
            self._held = True
            item.fn(*item.args)
            self._held = False
        elif (cost := item.fn()) is not None:  # the demand's next draw
            item.cost = cost
            process.queue.append(item)
            self.wake(process)
        if self._running is None and (self._ready or self._fair):
            self._dispatch()

    def _preempt(self) -> None:
        """Stop the current (non-RT) item; requeue its remainder."""
        process, item = self._running, self._item
        assert process is not None
        self._running, self._mark = None, None
        self.sim.cancel(self._event)
        executed = self.sim.now - self._started_at
        self._charge(process, executed)
        remaining = self._cost - executed
        if remaining > 0 or not item.cancelled:
            # The item goes back as its own leftover: its packet
            # and cancellation stay.
            item.cost = max(0.0, remaining) * self.speed
            process.queue.appendleft(item)
            self._ready.add(process)
            self._resume = process  # never real-time: only a non-RT chunk is preempted

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def crash_flush(self) -> None:
        """Discard all pending work (node crash).

        The item on the CPU is cancelled (its completion event still
        fires to keep accounting sane, but its callback is suppressed),
        every queued item on every process is cancelled and dropped,
        and any preemption-resume claim is forgotten. The packet a
        cancelled item is handed is a ``node_crash`` drop.
        """
        held = [(self._running, self._item)] if self._running is not None else []
        for process, item in held + [(p, i) for p in self.processes for i in p.queue]:
            if not item.cancelled and item.packet is not None:
                self.sim.trace.drop(item.packet, "node_crash", process.node.name)
            item.cancelled = True
            process.queue.clear()
        self._ready, self._fair, self._waiting, self._resume = set(), [], 0, None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"running {self._running.name}" if self._running else "idle"
        return f"<CPUScheduler {self.name} {state} procs={len(self.processes)}>"
