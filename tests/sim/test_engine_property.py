"""Property test: the engine against a reference scheduler.

The engine promises a strict (time, seq) total order. The oracle is
:class:`ReferenceScheduler` below: an unordered list and a ``min()``
per event, written to be obviously right rather than fast. Hypothesis
generates random programs (mixed near/far deadlines, absolute and
relative scheduling, call_soon / call_unique from inside callbacks,
chained scheduling, cancels, reschedules, periodics, chunked runs,
stop / step / peek interleavings) and the fire log must be *exactly*
identical — same tags, same float times — on both.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


class _Handle:
    def __init__(self, fn, args, interval=0.0):
        self.fn, self.args, self.interval = fn, args, interval
        self.time = self.seq = None
        self.cancelled = self.queued = False
        self.sched = None

    def cancel(self):
        self.cancelled = True
        self.interval = 0.0
        if self.queued:
            self.queued = False
            self.sched.queue.remove(self)


class ReferenceScheduler:
    """The engine's scheduling contract in its most naive form."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.seq = 0
        self.stopped = False
        self.unique = {}

    def _add(self, handle, time):
        assert time >= self.now
        self.seq += 1
        handle.time, handle.seq = time, self.seq
        handle.queued, handle.sched = True, self
        self.queue.append(handle)
        return handle

    def schedule(self, time, fn, *args):
        return self._add(_Handle(fn, args), time)

    def at(self, delay, fn, *args):
        return self._add(_Handle(fn, args), self.now + delay)

    def call_soon(self, fn, *args):
        return self._add(_Handle(fn, args), self.now)

    def call_unique(self, fn):
        if fn not in self.unique:
            def fire():
                del self.unique[fn]
                fn()
            self.unique[fn] = self.call_soon(fire)
        return self.unique[fn]

    def schedule_periodic(self, interval, fn, *args):
        return self._add(_Handle(fn, args, interval), self.now + interval)

    def reschedule(self, handle, time):
        assert not handle.queued and not handle.cancelled
        return self._add(handle, time)

    def peek(self):
        return min((h.time for h in self.queue), default=None)

    def step(self, bound=float("inf")):
        if not self.queue:
            return False
        handle = min(self.queue, key=lambda h: (h.time, h.seq))
        if handle.time > bound:
            return False
        self.queue.remove(handle)
        handle.queued = False
        self.now = handle.time
        if handle.interval:
            self._add(handle, self.now + handle.interval)
        handle.fn(*handle.args)
        return True

    def stop(self):
        self.stopped = True

    def run(self, until=None):
        self.stopped = False
        bound = float("inf") if until is None else until
        while not self.stopped and self.step(bound):
            pass
        if until is not None and not self.stopped and self.now < until:
            self.now = until
        return self.now


# (delay, action, aux, period) per timer:
#   action 0: plain one-shot
#   action 1: one-shot that schedules a follow-up +aux from its fire
#   action 2: one-shot cancelled at absolute time aux (maybe too late)
#   action 3: periodic(period) echoing one-shots onto its own next
#             tick, cancelled at absolute time aux
#   action 4: one-shot that reschedules itself once to now+aux
#   action 5: one-shot at *absolute* time delay whose fire call_soons a
#             follow-up and call_uniques the shared sweep twice
#   action 6: one-shot that call_soons a follow-up and cancels it
#
# Half the draws come from a coarse grid, so same-time ties — where
# only the sequence number decides — are common rather than freak.
def _grid_or_float(lo, hi, step):
    return st.one_of(
        st.integers(min_value=int(lo / step), max_value=40).map(
            lambda k: k * step),
        st.floats(min_value=lo, max_value=hi,
                  allow_nan=False, allow_infinity=False),
    )


_delays = _grid_or_float(0.0, 50_000.0, 0.5)
_aux = _grid_or_float(0.0, 600.0, 0.5)
_periods = _grid_or_float(1.0, 300.0, 1.0)
_timer = st.tuples(_delays, st.integers(min_value=0, max_value=6),
                   _aux, _periods)
_workload = st.lists(_timer, min_size=1, max_size=25)
_chunks = st.lists(st.floats(min_value=0.0, max_value=60_000.0,
                             allow_nan=False, allow_infinity=False),
                   max_size=3).map(sorted)


def _schedule_workload(sim, spec, log):
    events = {}

    def sweep():
        log.append(("sweep", sim.now))

    for i, (delay, action, aux, period) in enumerate(spec):
        if action == 0:
            events[i] = sim.at(delay, lambda i=i: log.append((i, sim.now)))
        elif action == 1:
            def chained(i=i, aux=aux):
                log.append((i, sim.now))
                sim.at(aux, lambda i=i: log.append((i, sim.now, "follow")))
            events[i] = sim.at(delay, chained)
        elif action == 2:
            event = sim.at(delay, lambda i=i: log.append((i, sim.now)))
            events[i] = event
            sim.at(aux, event.cancel)
        elif action == 3:
            def tick(i=i, period=period):
                log.append((i, sim.now))
                # Lands on the next tick's instant, after it.
                sim.at(period, lambda i=i: log.append((i, sim.now, "echo")))
            event = sim.schedule_periodic(period, tick)
            sim.at(aux, event.cancel)
        elif action == 4:
            once = []
            def rearming(i=i, aux=aux, once=once):
                log.append((i, sim.now))
                if not once:
                    once.append(1)
                    sim.reschedule(events[i], sim.now + aux)
            events[i] = sim.at(delay, rearming)
        elif action == 5:
            def soonish(i=i):
                log.append((i, sim.now))
                sim.call_unique(sweep)
                sim.call_soon(lambda i=i: log.append((i, sim.now, "soon")))
                sim.call_unique(sweep)
            events[i] = sim.schedule(delay, soonish)
        elif action == 6:
            def fickle(i=i):
                log.append((i, sim.now))
                sim.call_soon(lambda i=i: log.append((i, "never"))).cancel()
            events[i] = sim.at(delay, fickle)


def _run_workload(sim, spec, chunks):
    log = []
    _schedule_workload(sim, spec, log)
    for until in chunks:
        sim.run(until=until)
    sim.run()
    return log


def _run_workload_stop_step(sim, spec, chunks, stops, steps):
    """Drain the workload while interleaving stop(), run(until), step()
    and peek().

    Each stop() may end a run(until) chunk early; the final drain loops
    run() once per possible stop so the queue always empties.
    """
    log = []
    _schedule_workload(sim, spec, log)
    for t in stops:
        sim.at(t, sim.stop)
    for until in chunks:
        sim.run(until=until)
        for _ in range(steps):
            log.append(("peek", sim.peek()))
            if not sim.step():
                break
        log.append(("clock", sim.now))
    for _ in range(len(stops) + 1):
        sim.run()
        log.append(("clock", sim.now))
    log.append(("peek", sim.peek()))
    return log


@settings(max_examples=60, deadline=None)
@given(spec=_workload, chunks=_chunks)
def test_fire_order_identical_across_timer_structures(spec, chunks):
    assert (_run_workload(Simulator(seed=7), spec, chunks)
            == _run_workload(ReferenceScheduler(), spec, chunks))


_stops = st.lists(st.floats(min_value=0.0, max_value=60_000.0,
                            allow_nan=False, allow_infinity=False),
                  max_size=3)


@settings(max_examples=60, deadline=None)
@given(spec=_workload, chunks=_chunks, stops=_stops,
       steps=st.integers(min_value=0, max_value=4))
def test_stop_step_interleaving_identical_across_structures(spec, chunks,
                                                            stops, steps):
    # Includes the regression guard for run(until) ended by stop(): it
    # must not advance the clock past still-pending events, or a later
    # run() fires them and sends the clock backwards.
    reference = _run_workload_stop_step(ReferenceScheduler(), spec, chunks,
                                        stops, steps)
    times = [entry[1] for entry in reference if entry[0] != "peek"]
    assert times == sorted(times)  # clock never goes backwards
    assert _run_workload_stop_step(Simulator(seed=7), spec, chunks,
                                   stops, steps) == reference
