"""Property test: the CPU scheduler against the election it replaced.

The scheduler elects in one pass over an incrementally kept ready set.
The oracle is :class:`ReferenceScheduler` below — the election as it
stood at commit a609d73, verbatim: rescan every registered process
(``_runnable``), filter by cap, then ``_pick`` through per-band lists
and ``min()``. Hypothesis drives both with one script (mixed plain /
weighted / reserved / real-time / capped processes, both values of
``interactive_threshold`` and ``max_nonpreempt``, work arriving at
random and at tied instants, chained and cancelled items, crashes in
mid-chunk) and the ``(time, process, cost)`` dispatch sequence must be
identical and every usage average **bit-identical**: ``usage_fraction``
decays the average it reads, so an election that asks a different set
of processes drifts in the last digits.
"""

import math
from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.phys.cpu import CPUScheduler
from repro.phys.process import Process, WorkItem
from repro.sim import Simulator
from tests.conftest import battery
from tests.phys.test_cpu_golden import _on_cpu


class _Running:
    def __init__(self, process, item, started_at, cost, event):
        self.process, self.item, self.event = process, item, event
        self.started_at, self.cost = started_at, cost


class ReferenceScheduler:
    """The scan-and-filter scheduler, minus its metrics and flight hooks."""

    def __init__(self, sim, name="cpu", speed=1.0, ewma_tau=0.1, wake_bonus=0.003):
        self.sim, self.name, self.speed = sim, name, speed
        self.ewma_tau, self.wake_bonus = ewma_tau, wake_bonus
        self.max_nonpreempt = 0.0003
        self.interactive_threshold = 0.0
        self.processes = []
        self.busy_time = 0.0
        self._running = None
        self._resume = None

    def on_cpu(self):
        running = self._running
        return running and (running, running.process, running.cost)

    def register(self, process):
        self.processes.append(process)

    def wake(self, process):
        if len(process.queue) == 1 and not process.realtime:
            self._clamp_wakeup(process)
        running = self._running
        if running is None:
            self._dispatch()
            return
        preempts = process.realtime or self._interactive(process)
        if preempts and not running.process.realtime:
            if self.max_nonpreempt > 0.0:
                delay = (
                    self.sim.rng(f"nonpreempt.{self.name}").random()
                    * self.max_nonpreempt
                )
                self.sim.at(delay, self._deferred_preempt, running)
            else:
                self._preempt()
                self._dispatch()

    def _interactive(self, process):
        if self.interactive_threshold <= 0.0 or process.realtime:
            return False
        if len(process.queue) > 16 or process.backlog > 0.001:
            return False
        return self.usage_fraction(process) < self.interactive_threshold

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
        interactive = [p for p in runnable if self._interactive(p)]
        if interactive:
            self._resume = None if self._resume in interactive else self._resume
            return min(interactive, key=lambda p: p.vruntime)
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
        running.event.cancel()
        executed = self.sim.now - running.started_at
        self._charge(running.process, executed)
        remaining = running.cost - executed
        if remaining > 0 or not running.item.cancelled:
            leftover = WorkItem(
                max(0.0, remaining) * self.speed, running.item.fn, running.item.args,
                running.item.enqueued_at, running.item.span_packet,
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
#   action 4: item cancelled at absolute time aux (maybe too late)
#   action 5: a burst of 20 items (past _interactive's queue bound)
#   action 6: crash_flush at ``time``
_step = st.tuples(
    _grid_or_float(0.0, 0.2, 0.005), st.integers(1, 2 ** 12 - 1),
    # A third of the costs are small enough for _interactive's backlog bound.
    st.one_of(_grid_or_float(0.0, 0.02, 0.001),
              st.sampled_from([0.0, 0.0002, 0.0005, 0.001])),
    st.integers(0, 6),
    _grid_or_float(0.0, 0.2, 0.005),
)
STRATEGIES = dict(
    # One fair-share, one reserved and one real-time process in every
    # example, so the bands contend at most elections; the rest drawn.
    kinds=st.lists(_kind, max_size=9).map(
        lambda drawn: [{}, {"reservation": 0.25}, {"realtime": True}] + drawn),
    script=st.lists(_step, min_size=1, max_size=30),
    threshold=st.sampled_from([0.0, 0.05]),
    nonpreempt=st.sampled_from([0.0, 3e-4]),
)


def _submit(sim, proc, successor, log, cost, action, aux):
    name = proc.name
    if action == 5:
        for _ in range(20):
            proc.exec_after(cost / 20, log.append, ("burst", name))
    elif action == 4:
        item = proc.exec_after(cost, log.append, ("cancelled too late", name))
        sim.schedule(max(aux, sim.now), setattr, item, "cancelled", True)
    elif action == 3:
        proc.exec_after(cost, successor.exec_after, aux / 10, log.append,
                        ("chained", name))
    else:
        proc.exec_after(cost, log.append, ("done", name))


def _play(make_cpu, on_cpu, kinds, script, threshold, nonpreempt):
    sim = Simulator(seed=5)
    cpu = make_cpu(sim)
    cpu.interactive_threshold = threshold
    cpu.max_nonpreempt = nonpreempt
    node = SimpleNamespace(name="n", cpu=cpu)
    procs = [Process(node, f"p{i}", **kind) for i, kind in enumerate(kinds)]
    log = []
    dispatch = cpu._dispatch

    def recording():
        before = on_cpu(cpu)
        dispatch()
        after = on_cpu(cpu)
        if after and (not before or after[0] is not before[0]):
            log.append((sim.now, after[1].name, after[2]))

    cpu._dispatch = recording
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


@battery(150)
@given(**STRATEGIES)
def test_dispatch_sequence_and_accounting_match_reference(
        kinds, script, threshold, nonpreempt):
    new = _play(CPUScheduler, _on_cpu, kinds, script, threshold, nonpreempt)
    old = _play(ReferenceScheduler, ReferenceScheduler.on_cpu, kinds, script,
                threshold, nonpreempt)
    assert new == old
