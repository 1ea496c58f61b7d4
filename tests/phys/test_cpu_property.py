"""Property test: the CPU scheduler against the election it replaced.

The scheduler elects from a heap of plain processes and one pass over
an incrementally kept ready set.
The oracle is :class:`ReferenceScheduler` below — the election as it
stood at commit a609d73, verbatim but for the interactivity band both
have since lost: rescan every registered process (``_runnable``),
filter by cap, then ``_pick`` through per-band lists and ``min()``.
Hypothesis drives both with one script (mixed plain / weighted /
reserved / real-time / capped processes, both values of
``max_nonpreempt``, work arriving at random and at tied instants,
chained items, crashes in mid-chunk) and the
``(time, process, cost)`` dispatch sequence must be identical and every
usage average **bit-identical**: ``usage_fraction`` decays the average
it reads, so an election that asks a different set of processes drifts
in the last digits.
"""

import math
from types import SimpleNamespace
from typing import List, Optional, Set

from hypothesis import example, given, strategies as st

from repro.faults.plan import _cpu_burst
from repro.phys.cpu import EWMA_TAU, WAKE_BONUS, CPUScheduler
from repro.phys.load import CPUHog
from repro.phys.node import PhysicalNode
from repro.phys.process import Process, WorkItem
from repro.sim import PeriodicTimer, Simulator
from tests.conftest import battery


def _record(cpu, log, entry):
    """:meth:`ReferenceScheduler.record` for :class:`CPUScheduler`."""
    run = cpu._run

    def recording(process, item):
        run(process, item)
        log.append(entry(process, cpu._cost))

    cpu._run = recording


class _Running:
    def __init__(self, process, item, started_at, cost, event):
        self.process, self.item, self.event = process, item, event
        self.started_at, self.cost = started_at, cost


class ReferenceScheduler:
    """The scan-and-filter scheduler, minus its metrics and flight hooks."""

    def __init__(self, sim, name="cpu", speed=1.0):
        self.sim, self.name, self.speed = sim, name, speed
        self.ewma_tau, self.wake_bonus = EWMA_TAU, WAKE_BONUS
        self.max_nonpreempt = 0.0003
        self.processes = []
        self.busy_time = 0.0
        self._running = None
        self._resume = None

    def record(self, log, entry):
        """Call ``entry()`` and log it for every chunk put on the CPU."""
        dispatch = self._dispatch

        def recording():
            before = self._running
            dispatch()
            after = self._running
            if after and after is not before:
                log.append(entry(after.process, after.cost))

        self._dispatch = recording

    def register(self, process):
        self.processes.append(process)

    def wake(self, process):
        if len(process.queue) == 1 and not process.realtime:
            self._clamp_wakeup(process)
        running = self._running
        if running is None:
            self._dispatch()
            return
        if process.realtime and not running.process.realtime:
            if self.max_nonpreempt > 0.0:
                delay = (
                    self.sim.rng(f"nonpreempt.{self.name}").random()
                    * self.max_nonpreempt
                )
                self.sim.at(delay, self._deferred_preempt, running)
            else:
                self._preempt()
                self._dispatch()

    def _deferred_preempt(self, target):
        if self._running is target:
            self._preempt()
            self._dispatch()

    def _clamp_wakeup(self, process):
        reference = [
            p.vruntime
            for p in self.processes
            if p is not process and not p.realtime and (p.queue or (
                self._running is not None and self._running.process is p))
        ]
        if not reference:
            return
        floor = min(reference) - self.wake_bonus
        if process.vruntime < floor:
            process.vruntime = floor

    def _decay_usage(self, process):
        now = self.sim.now
        dt = now - process._usage_stamp
        if dt > 0:
            process.usage_ewma *= math.exp(-dt / self.ewma_tau)
            process._usage_stamp = now

    def _charge(self, process, executed):
        process.cpu_used += executed
        self.busy_time += executed
        process.vruntime += executed / process.share
        self._decay_usage(process)
        process.usage_ewma += executed
        process._usage_stamp = self.sim.now

    def usage_fraction(self, process):
        self._decay_usage(process)
        return min(1.0, process.usage_ewma / self.ewma_tau)

    def _runnable(self):
        result = []
        for process in self.processes:
            queue = process.queue
            while queue and queue[0].cancelled:
                queue.popleft()
            if queue:
                result.append(process)
        return result

    def _pick(self, runnable):
        realtime = [p for p in runnable if p.realtime]
        if realtime:
            return min(realtime, key=lambda p: p.vruntime)
        if self._resume is not None and self._resume in runnable:
            owner = self._resume
            self._resume = None
            return owner
        self._resume = None
        reserved = [
            p
            for p in runnable
            if p.reservation > 0.0 and self.usage_fraction(p) < p.reservation
        ]
        if reserved:
            return min(reserved, key=lambda p: p.vruntime)
        return min(runnable, key=lambda p: p.vruntime)

    def _under_cap(self, process):
        return (
            process.cpu_cap is None
            or self.usage_fraction(process) < process.cpu_cap
        )

    def _dispatch(self):
        if self._running is not None:
            return
        runnable = self._runnable()
        if not runnable:
            return
        eligible = [p for p in runnable if self._under_cap(p)]
        if not eligible:
            delay = min(
                self.ewma_tau
                * math.log(max(self.usage_fraction(p) / p.cpu_cap, 1.0 + 1e-9))
                for p in runnable
            )
            self.sim.at(max(delay, 1e-6), self._dispatch)
            return
        runnable = eligible
        process = self._pick(runnable)
        item = process.queue.popleft()
        cost = item.cost / self.speed
        event = self.sim.at(cost, self._complete)
        self._running = _Running(process, item, self.sim.now, cost, event)

    def _complete(self):
        running = self._running
        assert running is not None
        self._running = None
        self._charge(running.process, running.cost)
        item = running.item
        if not item.cancelled:
            item.fn(*item.args)
        self._dispatch()

    def _preempt(self):
        running = self._running
        assert running is not None
        self._running = None
        self.sim.cancel(running.event)
        executed = self.sim.now - running.started_at
        self._charge(running.process, executed)
        remaining = running.cost - executed
        if remaining > 0 or not running.item.cancelled:
            leftover = WorkItem(
                max(0.0, remaining) * self.speed, running.item.fn, running.item.args,
                running.item.packet,
            )
            leftover.cancelled = running.item.cancelled
            running.process.queue.appendleft(leftover)
            if not running.process.realtime:
                self._resume = running.process

    def crash_flush(self):
        if self._running is not None:
            self._running.item.cancelled = True
        for process in self.processes:
            for item in process.queue:
                item.cancelled = True
            process.queue.clear()
        self._resume = None


# Half the draws come from a coarse grid, so equal costs — hence equal
# vruntimes, where only registration order decides — and same-instant
# arrivals are common rather than freak.
def _grid_or_float(lo, hi, step):
    return st.one_of(
        st.integers(min_value=round(lo / step), max_value=round(hi / step)).map(
            lambda k: k * step),
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
    )


_kind = st.one_of(
    st.just({}),
    st.builds(dict, share=st.sampled_from([0.5, 2.0, 3.0])),
    st.builds(dict, reservation=st.sampled_from([0.1, 0.25])),
    st.builds(dict, realtime=st.just(True)),
    st.builds(dict, realtime=st.just(True), reservation=st.just(0.25)),
    st.builds(dict, cpu_cap=st.sampled_from([0.02, 0.2])),
    st.builds(dict, cpu_cap=st.sampled_from([0.05, 0.2]), reservation=st.just(0.2)),
)
# (time, processes, cost, action, aux): every process whose bit is set
# in ``processes`` gets the same action at the same instant, so several
# bands contend at most elections; arrivals are packed into 0.2 s so
# preemptions land in mid-chunk.
#   action 0-2: plain work item
#   action 3: item that, when done, wakes the next process with
#             ``aux / 10`` of work
#   action 5: a burst of 20 items
#   action 6: crash_flush at ``time``
# There is no action 4, an item cancelled by hand: queued work is
# cancelled only by a crash, which empties every queue at once.
_step = st.tuples(
    _grid_or_float(0.0, 0.2, 0.005), st.integers(1, 2 ** 12 - 1),
    st.one_of(_grid_or_float(0.0, 0.02, 0.001),
              st.sampled_from([0.0, 0.0002, 0.0005, 0.001])),
    st.sampled_from([0, 1, 2, 3, 5, 6]),
    _grid_or_float(0.0, 0.2, 0.005),
)
STRATEGIES = dict(
    # One fair-share, one reserved and one real-time process in every
    # example, so the bands contend at most elections; the rest drawn.
    kinds=st.lists(_kind, max_size=9).map(
        lambda drawn: [{}, {"reservation": 0.25}, {"realtime": True}] + drawn),
    script=st.lists(_step, min_size=1, max_size=30),
    nonpreempt=st.sampled_from([0.0, 3e-4]),
)


def _submit(sim, proc, successor, log, cost, action, aux):
    name = proc.name
    if action == 5:
        for _ in range(20):
            proc.exec_after(cost / 20, log.append, ("burst", name))
    elif action == 3:
        proc.exec_after(cost, successor.exec_after, aux / 10, log.append,
                        ("chained", name))
    else:
        proc.exec_after(cost, log.append, ("done", name))


def _play(make_cpu, record, kinds, script, nonpreempt):
    sim = Simulator(seed=5)
    cpu = make_cpu(sim)
    cpu.max_nonpreempt = nonpreempt
    node = SimpleNamespace(name="n", cpu=cpu)
    procs = [Process(node, f"p{i}", **kind) for i, kind in enumerate(kinds)]
    log = []
    record(cpu, log, lambda process, cost: (sim.now, process.name, cost))
    for time, mask, cost, action, aux in script:
        if action == 6:
            sim.schedule(time, cpu.crash_flush)
            continue
        for index, proc in enumerate(procs):
            if mask >> index & 1:
                sim.schedule(time, _submit, sim, proc, procs[index - 1], log,
                             cost, action, aux)
    sim.run(until=1.0)
    state = [(p.vruntime, p.usage_ewma, p.cpu_used, len(p.queue)) for p in procs]
    return log, state, cpu.busy_time, sim.now


_BANDS = [{}, {"reservation": 0.25}, {"realtime": True}]


def _alone(mask, extra=()):
    """An example whose every election has the ``mask`` process alone."""
    return example(kinds=_BANDS + list(extra), nonpreempt=3e-4,
                   script=[(0.0, mask, 0.001, 0, 0.0), (0.1, mask, 0.001, 0, 0.0)])


# Zoo-sized: 22 plain processes (weighted and not) beside the three
# bands, most with deep queues, so the fair-share heap holds 18 or more
# at nine elections in ten. Drawn examples stop at 12 processes.
_ZOO = _BANDS + [{}, {"share": 2.0}] * 11
_ZOO_ALL = 2 ** len(_ZOO) - 1


@battery(150)
@given(**STRATEGIES)
# The hand-offs from the idle-CPU start to the scan, always drawn:
@_alone(0b1000, extra=[{"cpu_cap": 0.2}])  # a cap
@_alone(0b10)  # a reservation, not the resume owner
@example(kinds=_ZOO, nonpreempt=3e-4, script=[
    (0.0, _ZOO_ALL, 0.004, 5, 0.0), (0.0, _ZOO_ALL ^ 0b100, 0.002, 0, 0.0),
    (0.01, 0b1010101010101010101000, 0.0005, 3, 0.05),
    (0.02, 0b100, 0.0003, 0, 0.0), (0.05, _ZOO_ALL ^ 0b111, 0.001, 5, 0.0),
    (0.05, 0b101, 0.002, 0, 0.0), (0.1, 0b1100110011001100110011000, 0.003, 0, 0.0),
    (0.15, _ZOO_ALL, 0.0, 6, 0.0), (0.15, _ZOO_ALL, 0.001, 5, 0.0),
])
def test_dispatch_sequence_and_accounting_match_reference(kinds, script, nonpreempt):
    new = _play(CPUScheduler, _record, kinds, script, nonpreempt)
    old = _play(ReferenceScheduler, ReferenceScheduler.record, kinds, script,
                nonpreempt)
    assert new == old


# Work waking an idle CPU with nothing waiting starts without the scan
# unless the scan would read its usage, which decays the average and
# moves its stamp. One case per hand-off: each election below has exactly
# one process ready, at an instant after its last charge, so only a usage
# read moves the stamp.
def _sole_elections(make_cpu, record, kind):
    sim = Simulator(seed=5)
    cpu = make_cpu(sim)
    proc = Process(SimpleNamespace(name="n", cpu=cpu), "p", **kind)
    seen = []
    record(cpu, seen, lambda *_: (sim.now, proc.usage_ewma, proc._usage_stamp))
    for start in (0.0, 0.05, 0.3):
        sim.schedule(start, proc.exec_after, 0.0005, lambda: None)
    sim.run()
    return seen


def _assert_stamps_follow_the_rescan(kind):
    new = _sole_elections(CPUScheduler, _record, kind)
    old = _sole_elections(ReferenceScheduler, ReferenceScheduler.record, kind)
    assert new == old
    # The case reads usage at election: the last stamp is the election's.
    assert len(new) == 3 and new[-1][2] == new[-1][0] == 0.3


def test_sole_capped_process_is_elected_through_the_scan():
    _assert_stamps_follow_the_rescan({"cpu_cap": 0.2})


def test_sole_reserved_process_not_resuming_is_elected_through_the_scan():
    _assert_stamps_follow_the_rescan({"reservation": 0.25})


# ----------------------------------------------------------------------
# Standing demand. The oracle is the scheduler and the hog of the commit
# before hogs ran without engine events — every chunk an event —
# verbatim but for their names: ParentScheduler, ParentHog and
# _parent_burst (FaultPlan's cpu_burst, building a ParentHog). One change
# since: ParentHog.start, like CPUHog.start, draws no second chunk while
# a live one is queued or on the CPU (one chain per hog); and, like the
# scheduler, ParentScheduler keeps no scheduling-latency histogram.
# Hypothesis drives both with one script over hog sets (count, quantum,
# heavy tail, share) beside reserved, capped and real-time processes:
# work at instants tied to chunk ends, hog starts and stops, CPU
# bursts, crashes and probe reads at random instants. The dispatch
# stream, every accounting float and every probe read must be
# identical, at a mid-run stop and at the end.
# ----------------------------------------------------------------------
_INF = float("inf")


def _order(process: Process):
    """Election order: least virtual runtime, ties to the process
    registered first."""
    return process.vruntime, process.index


class ParentScheduler:
    """Single-CPU scheduler with fair share, reservations and RT bands.

    Parameters
    ----------
    speed:
        Relative CPU speed; work costs are expressed in seconds on a
        speed-1.0 reference CPU and divided by this factor.
    """

    def __init__(self, sim: Simulator, name: str = "cpu", speed: float = 1.0):
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed!r}")
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
        self.busy_time = 0.0  # cumulative seconds the CPU was executing
        # The chunk on the CPU: its owner (None when idle), the item,
        # when it started, the wall seconds it takes, its completion.
        self._running: Optional[Process] = None
        self._item: Optional[WorkItem] = None
        self._started_at = self._cost = 0.0
        self._event: Optional[list] = None
        # A non-RT process whose chunk was preempted by real-time work:
        # it owns the rest of its timeslice and resumes first.
        self._resume: Optional[Process] = None
        # Bound once: a stream is seeded from sha256(seed:name), so when
        # it is created cannot change what it draws.
        self._nonpreempt_rng = sim.rng(f"nonpreempt.{name}")
        metrics = sim.metrics
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
        running = self._running
        if len(process.queue) == 1:
            # Idle -> ready; a fair-share sleeper's credit is bounded:
            # it wakes at most WAKE_BONUS before the least vruntime of
            # the other fair-share processes ready or on the CPU.
            self._ready.add(process)
            if not process.realtime:
                floor = _INF
                for p in self._ready:
                    if p.vruntime < floor and not p.realtime and p is not process:
                        floor = p.vruntime
                if (running is not None and running.vruntime < floor
                        and not running.realtime and running is not process):
                    floor = running.vruntime
                if floor != _INF:
                    process.vruntime = max(process.vruntime, floor - WAKE_BONUS)
        if running is None:
            self._dispatch()
            return
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
        """Elect from the ready set in one pass — RT band, preempted-slice
        resume, under-reservation band, then fair share — and put the
        winner's head item on the CPU.

        ``usage_fraction`` decays the average it reads, and stepwise
        decay is not associative in floats, so *which* processes are
        asked at an election is part of the result: every ready process
        with a cap, always; the reservation band only once no real-time
        process is eligible. A sole ready process that the scan would
        not ask is elected without it.
        """
        ready = self._ready
        if self._running is not None or not ready:
            return
        owner, process = self._resume, None
        if len(ready) == 1:
            # A sole ready process wins whichever band it is in. Elect it
            # directly unless the scan would read its usage: a cap, or a
            # reservation it does not already resume through.
            (process,) = ready
            if process.cpu_cap is not None or not (
                    process.realtime or process.reservation <= 0.0 or process is owner):
                process = None
            else:
                queue = process.queue
                while queue and queue[0].cancelled:
                    queue.popleft()
                if not queue:
                    ready.clear()
                    return
                if not process.realtime:
                    self._resume = None
        if process is None:
            usage = self.usage_fraction
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
                        key=_order, default=fair)
                else:
                    process = fair
        item = process.queue.popleft()
        if not process.queue:
            ready.remove(process)
        sim = self.sim
        if item.packet is not None:
            # Close the flight's cpu.wait (run-queue) stage: the work is
            # now on the CPU. The stage stays open across preemption, so
            # it covers execution plus any time spent preempted.
            sim.flight.stage(item.packet, "cpu.exec", node=self.name)
        self._running, self._item = process, item
        self._started_at = sim.now
        self._cost = cost = item.cost / self.speed
        self._event = sim.at(cost, self._complete)

    def _complete(self) -> None:
        process, item = self._running, self._item
        assert process is not None
        self._running = None
        self._charge(process, self._cost)
        if not item.cancelled:
            item.fn(*item.args)
        if self._running is None and self._ready:
            self._dispatch()

    def _preempt(self) -> None:
        """Stop the current (non-RT) item; requeue its remainder."""
        process, item = self._running, self._item
        assert process is not None
        self._running = None
        self.sim.cancel(self._event)
        executed = self.sim.now - self._started_at
        self._charge(process, executed)
        remaining = self._cost - executed
        if remaining > 0 or not item.cancelled:
            leftover = WorkItem(
                max(0.0, remaining) * self.speed, item.fn, item.args,
                item.packet,
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
        return f"<ParentScheduler {self.name} {state} procs={len(self.processes)}>"


class ParentHog:
    """A slice process that consumes every cycle it is offered.

    Parameters
    ----------
    quantum:
        Nominal work-chunk size in seconds (a Linux-2.6-era timeslice).
    heavy_tail_prob / heavy_tail_max:
        With this probability a chunk is drawn uniformly from
        ``[quantum, heavy_tail_max]`` instead — modeling occasional
        long non-preemptible stretches (kernel work, cache-cold phases)
        that produce the 80 ms ping outliers of Table 5.
    duty_cycle:
        Fraction of time the hog wants to run. Below 1.0 the hog sleeps
        between bursts, modeling slices that are busy only sometimes —
        this is what makes contention *fluctuate*, the paper's stated
        obstacle to repeatable experiments.
    """

    def __init__(
        self,
        node: PhysicalNode,
        name: str = "hog",
        quantum: float = 0.005,
        heavy_tail_prob: float = 0.02,
        heavy_tail_max: float = 0.060,
        duty_cycle: float = 1.0,
        share: float = 1.0,
        rng_stream: Optional[str] = None,
    ):
        if not 0 < duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle must be in (0, 1], got {duty_cycle!r}")
        self.node = node
        self.process = Process(node, name, share=share)
        self.quantum = quantum
        self.heavy_tail_prob = heavy_tail_prob
        self.heavy_tail_max = heavy_tail_max
        self.duty_cycle = duty_cycle
        self.rng = node.sim.rng(rng_stream or f"hog.{node.name}.{name}")
        self.running = False

    def start(self) -> "ParentHog":
        if not self.running:
            self.running = True
            # Changed from the parent: one chain per hog. A live chunk,
            # queued or on the CPU, carries the chain on (_done).
            cpu, process = self.node.cpu, self.process
            held = [*process.queue] + ([cpu._item] if cpu._running is process else [])
            if all(item.cancelled for item in held):
                self._submit()
        return self

    def stop(self) -> None:
        self.running = False

    def _chunk(self) -> float:
        if self.heavy_tail_prob and self.rng.random() < self.heavy_tail_prob:
            return self.rng.uniform(self.quantum, self.heavy_tail_max)
        return self.quantum

    def _submit(self) -> None:
        if not self.running:
            return
        self.process.exec_after(self._chunk(), self._done)

    def _done(self) -> None:
        if not self.running:
            return
        if self.duty_cycle >= 1.0:
            self._submit()
            return
        # Sleep so that the long-run demand equals the duty cycle.
        sleep = self.quantum * (1.0 - self.duty_cycle) / self.duty_cycle
        # Burstiness: exponential-ish gap around the mean sleep.
        gap = self.rng.expovariate(1.0 / sleep) if sleep > 0 else 0.0
        self.node.sim.at(gap, self._submit)


def _parent_burst(node, duration: float, share: float, quantum: float) -> None:
    # Numbered per node, not per install: two plans bursting one node
    # start distinct hogs, and a spec-rebuilt run names them alike.
    index = sum(p.name.startswith("faultburst") for p in node.cpu.processes)
    hog = ParentHog(
        node,
        name=f"faultburst{index}",
        quantum=quantum,
        heavy_tail_prob=0.0,
        share=share,
        rng_stream=f"faults.burst.{node.name}.{index}",
    ).start()
    node.sim.at(duration, hog.stop)


def _record_parent(cpu, log):
    dispatch = cpu._dispatch

    def recording():
        before = cpu._running and cpu._event
        dispatch()
        if cpu._running is not None and cpu._event is not before:
            log.append((cpu.sim.now, cpu._running.name, cpu._cost))

    cpu._dispatch = recording


# Dyadic quanta and grid: sums of them are exact, so a chunk often ends
# at the very instant work arrives or a probe reads.
_TICK = 2 ** -11  # ~0.5 ms
_QUANTA = [_TICK, 2 * _TICK, 8 * _TICK]
_hog = st.builds(
    dict,
    quantum=st.sampled_from(_QUANTA),
    heavy_tail_prob=st.sampled_from([0.0, 0.006, 0.3]),
    heavy_tail_max=st.sampled_from([0.01, 0.045]),
    share=st.sampled_from([1.0, 0.5, 2.0]),
)
# (time, action, target, cost, aux); times and costs partly on the hogs'
# quantum grid.
#   action 0-2: a work item of ``cost`` for process ``target``
#   action 3 / 4: start / stop hog ``target``
#   action 5: a CPU burst of ``aux`` s, share and quantum from ``target``
#   action 6: crash_flush
#   action 7: read every probe and every usage fraction
#   action 8: schedule, from an event at ``time``, action 0 ``aux - tick``
#             s later (0 included: the same instant)
#   action 9: the same, through an event ``target >> 3 & 7`` ticks later
#   action 10: action 7 every ``aux`` s from ``time`` on, a periodic event
_hog_step = st.tuples(
    _grid_or_float(0.0, 0.3, _TICK), st.integers(0, 10), st.integers(0, 63),
    _grid_or_float(0.0, 0.004, _TICK),
    st.one_of(_grid_or_float(_TICK, 0.1, _TICK),
              st.integers(1, 9).map(lambda k: k * _TICK)),
)
HOG_STRATEGIES = dict(
    members=st.lists(
        st.one_of(_hog.map(lambda kw: ("hog", kw)), _kind.map(lambda kw: ("proc", kw))),
        min_size=1, max_size=10),
    started=st.integers(0, 2 ** 10 - 1),
    script=st.lists(_hog_step, max_size=30),
    nonpreempt=st.sampled_from([0.0, 3e-4]),
)


def _play_hogs(make_cpu, make_hog, burst, record, members, started, script,
               nonpreempt):
    sim = Simulator(seed=11)
    cpu = make_cpu(sim, "n")
    cpu.max_nonpreempt = nonpreempt
    node = SimpleNamespace(name="n", sim=sim, cpu=cpu)
    dispatches, log = [], []
    record(cpu, dispatches)
    hogs, procs = [], []
    for index, (kind, kw) in enumerate(members):
        if kind == "hog":
            hogs.append(make_hog(node, name=f"h{index}", **kw))
        else:
            procs.append(Process(node, f"p{index}", **kw))
    for index, hog in enumerate(hogs):
        if started >> index & 1:
            hog.start()

    def read():
        metrics = sim.metrics
        log.append((
            sim.now, metrics.value("cpu.busy_seconds", cpu="n"),
            metrics.value("cpu.runq_depth", cpu="n"),
            [metrics.value("cpu.process_seconds", cpu="n", process=p.metric_label)
             for p in cpu.processes],
            [cpu.usage_fraction(p) for p in cpu.processes],
        ))

    for time, action, target, cost, aux in script:
        if action in (0, 1, 2, 8, 9) and procs:
            proc = procs[target % len(procs)]
            work = (proc.exec_after, cost, log.append, ("done", proc.name))
            if action >= 8:
                work = (sim.at, aux - _TICK) + work
            if action == 9:
                work = (sim.at, (target >> 3 & 7) * _TICK) + work
            sim.schedule(time, *work)
        elif action in (3, 4) and hogs:
            hog = hogs[target % len(hogs)]
            sim.schedule(time, hog.start if action == 3 else hog.stop)
        elif action == 5:
            sim.schedule(time, burst, node, aux, [1.0, 0.5, 2.0][target % 3],
                         _QUANTA[target // 3 % 3])
        elif action == 6:
            sim.schedule(time, cpu.crash_flush)
        elif action == 7:
            sim.schedule(time, read)
        elif action == 10:
            sim.schedule(time, PeriodicTimer, sim, aux, read)

    def state():
        return (
            sim.now, cpu.busy_time,
            [(p.name, p.cpu_used, p.vruntime, p.usage_ewma, p._usage_stamp,
              len(p.queue)) for p in cpu.processes],
        )

    sim.run(until=0.125)  # on the grid: chunks end at the bound
    middle = state()
    sim.run(until=0.4)
    return dispatches, log, middle, state()


def _record_new(cpu, log):
    def entry(process, cost):
        # The bookkeeping the election reads holds as each chunk starts:
        # every process with work queued waits once, _waiting counts the
        # heap's entries that are not standing demand, and a chunk that
        # catch_up will complete starts with no preempted slice's owner.
        fair = [p for _, _, p in cpu._fair]
        assert {p for p in cpu.processes if p.queue} == cpu._ready.union(fair)
        assert cpu._waiting == sum(p not in cpu.standing for p in fair)
        assert cpu._mark is None or cpu._resume is None
        return cpu._started_at, process.name, cost

    _record(cpu, log, entry)


_HOG8 = ("hog", dict(quantum=_QUANTA[2], heavy_tail_prob=0.0, heavy_tail_max=0.01,
                     share=1.0))  # 8-tick chunks


def _one_hog(*script):
    """An example: one hog of 8-tick chunks from 0, and one process."""
    return example(members=[_HOG8, ("proc", {})], started=1, nonpreempt=0.0,
                   script=list(script))


# Work that an event at 18 ticks relays to 24, where the chunk begun at
# 16 ends.
_RELAYED = (18 * _TICK, 8, 0, 0.0, 7 * _TICK)


@battery(100)
@given(**HOG_STRATEGIES)
# The relayed work must find the chunk ended: with a probe read at 20
# ticks, or with work at 20 that gives the chunk a late event.
@_one_hog(_RELAYED, (20 * _TICK, 7, 0, 0.0, _TICK))
@_one_hog(_RELAYED, (17 * _TICK, 7, 0, 0.0, _TICK), (20 * _TICK, 0, 0, 0.0, _TICK))
# So must work relayed in two hops, 12 -> 16 -> 24 ticks: the chunk
# begins at the instant of the middle hop, ahead of it.
@_one_hog((12 * _TICK, 9, 32, 0.0, 9 * _TICK))
# A probe read in the chunk that ends at the mid-run bound: the chunk
# completes in that run.
@_one_hog((250 * _TICK, 7, 0, 0.0, _TICK))
# Probes read by a periodic event as each chunk ends.
@_one_hog((0.0, 10, 0, 0.0, 8 * _TICK))
# A crash in the deferral before real-time work preempts the chunk: the
# preempted remainder is cancelled, and the CPU goes idle.
@example(members=[_HOG8, ("proc", dict(realtime=True))], started=1, nonpreempt=3e-4,
         script=[(_TICK, 0, 0, 0.0, _TICK), (_TICK, 6, 0, 0.0, _TICK)])
# A burst that stops as its first chunk ends, and work at its start.
@example(members=[("proc", {})], started=0, nonpreempt=0.0,
         script=[(0.0, 5, 0, 0.0, _TICK), (0.0, 0, 0, 0.0, _TICK)])
# catch_up rotates a hog chunk in one loop body while only standing
# demand waits. That body with nothing else waiting: a lone hog, whose
# own heap entry wins the pick;
@example(members=[_HOG8], started=1, nonpreempt=0.0, script=[])
# and each way out of it to _complete: a hog stopped in mid-chunk,
# whose completion draws nothing while the other hog rotates on;
@example(members=[_HOG8, _HOG8], started=3, nonpreempt=0.0,
         script=[(3 * _TICK, 4, 0, 0.0, _TICK)])
# a crash in mid-chunk, which cancels the chunk the loop then completes,
# and a hog started again after it;
@example(members=[_HOG8, _HOG8], started=3, nonpreempt=0.0,
         script=[(3 * _TICK, 6, 0, 0.0, _TICK), (20 * _TICK, 3, 1, 0.0, _TICK)])
# real-time work that preempts a hog, which then owns its slice;
@example(members=[_HOG8, _HOG8, ("proc", dict(realtime=True))], started=3,
         nonpreempt=3e-4, script=[(3 * _TICK, 0, 0, _TICK, _TICK)])
# a plain process woken with two items, one chunk each, first in line;
@example(members=[("proc", {}), _HOG8, _HOG8], started=3, nonpreempt=0.0,
         script=[(3 * _TICK, 0, 0, _TICK, _TICK), (3 * _TICK, 0, 0, _TICK, _TICK)])
# a reserved process ready as the chunk begun at 8 ticks ends at 16;
@example(members=[_HOG8, _HOG8, ("proc", dict(reservation=0.25))], started=3,
         nonpreempt=0.0, script=[(16 * _TICK, 0, 0, _TICK, _TICK)])
# and, inside the loop, the sleeper floor: h1 rotates alone from 210
# ticks until h0, stopped at 200 with the larger vruntime, starts again
# at 240; h1's next chunk end raises it to h0's less WAKE_BONUS.
@example(members=[_HOG8, _HOG8], started=1, nonpreempt=0.0,
         script=[(200 * _TICK, 4, 0, 0.0, _TICK), (210 * _TICK, 3, 1, 0.0, _TICK),
                 (240 * _TICK, 3, 0, 0.0, _TICK)])
def test_standing_demand_matches_an_event_per_chunk(members, started, script,
                                                     nonpreempt):
    new = _play_hogs(CPUScheduler, CPUHog, _cpu_burst, _record_new, members,
                     started, script, nonpreempt)
    old = _play_hogs(ParentScheduler, ParentHog, _parent_burst, _record_parent,
                     members, started, script, nonpreempt)
    assert new == old
