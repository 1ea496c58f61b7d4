"""Property test: the engine against a reference scheduler.

The engine promises a strict (time, seq) total order. The oracle is
:class:`ReferenceScheduler` below: an unordered list and a ``min()``
per event, written to be obviously right rather than fast. Hypothesis
generates random programs (mixed near/far deadlines, absolute and
relative scheduling, call_soon from inside callbacks, chained
scheduling, cancels before and after firing, double cancels, cancels
from the same timestamp, self re-arms, periodic timers, work advanced
off the heap, chunked runs, stop / step / peek interleavings) and the
fire log must be *exactly* identical — same tags, same float times,
same pending counts — on both.

The reference has no horizon: work registered with ``due`` fires as
an entry of its own at ``(time, mark + 0.5)``. The engine's horizon
completes one model's pieces before the next's, so each piece is
logged with the number of events fired before it, and the pieces are
compared as a sorted list. Two pieces of work, one begun before the
other and ending after it, make the horizon move earlier and back
again to the key of its own corpse; an engine entry compared past
``seq`` there raises ``TypeError``.
"""

from hypothesis import example, given, strategies as st

from repro.sim import PeriodicTimer, Simulator
from tests.conftest import battery

_INF = float("inf")


class _Handle:
    def __init__(self, fn, args):
        self.fn, self.args = fn, args
        self.time = self.seq = None
        self.queued = False


class ReferenceScheduler:
    """The engine's scheduling contract in its most naive form."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.seq = 0
        self.stopped = False
        self.catch_ups = []
        self.dues = []  # (time, mark + 0.5) of each piece of work
        self.firing = ()

    def _add(self, handle, time):
        assert time >= self.now
        self.seq += 1
        handle.time, handle.seq = time, self.seq
        handle.queued = True
        self.queue.append(handle)
        return handle

    def schedule(self, time, fn, *args):
        return self._add(_Handle(fn, args), time)

    def at(self, delay, fn, *args):
        return self._add(_Handle(fn, args), self.now + delay)

    def call_soon(self, fn, *args):
        return self._add(_Handle(fn, args), self.now)

    def cancel(self, handle):
        if handle.queued:
            handle.queued = False
            self.queue.remove(handle)

    def due(self, time):
        assert time >= self.now
        self.dues.append((time, self.seq + 0.5))
        return self.seq

    def is_due(self, time, mark):
        return (time, mark + 0.5) in self.firing

    @property
    def pending(self):
        # The engine counts all work off the heap as one horizon event.
        return len(self.queue) + bool(self.dues)

    def peek(self):
        return min([h.time for h in self.queue] + [t for t, _ in self.dues],
                   default=None)

    def step(self, bound=_INF):
        event = min(((h.time, h.seq) for h in self.queue), default=(_INF, 0))
        work = min(self.dues, default=(_INF, 0))
        if min(event, work)[0] > bound or min(event, work) == (_INF, 0):
            return False
        if work < event:
            # Every piece ending at this instant before the next event.
            self.firing = [key for key in self.dues
                           if key[0] == work[0] and key < event]
            self.dues = [key for key in self.dues if key not in self.firing]
            self.now = work[0]
            for catch_up in self.catch_ups:
                catch_up()
            self.firing = ()
            return True
        handle = min(self.queue, key=lambda h: (h.time, h.seq))
        self.queue.remove(handle)
        handle.queued = False
        self.now = handle.time
        handle.fn(*handle.args)
        return True

    def stop(self):
        self.stopped = True

    def run(self, until=None):
        self.stopped = False
        bound = _INF if until is None else until
        while not self.stopped and self.step(bound):
            pass
        if until is not None and not self.stopped and self.now < until:
            self.now = until
        return self.now


class _Lazy:
    """``pieces`` pieces of work ``length`` long, back to back from
    when it is made, advanced off the heap; each lands in ``done`` with
    the length of the event ``log`` when it completes."""

    def __init__(self, sim, tag, length, pieces, log, done):
        self.sim, self.tag, self.length, self.left = sim, tag, length, pieces
        self.log, self.done = log, done
        self.end = sim.now + length
        self.mark = sim.due(self.end)
        sim.catch_ups.append(self.catch_up)

    def catch_up(self):
        while self.left and self.sim.is_due(self.end, self.mark):
            self.sim.now = self.end
            self.done.append((self.tag, self.end, len(self.log)))
            self.left -= 1
            if self.left:
                self.end += self.length
                self.mark = self.sim.due(self.end)
        return (self.end, self.mark) if self.left else None


# (delay, action, aux, period) per timer:
#   action 0: plain one-shot
#   action 1: one-shot that schedules a follow-up +aux from its fire
#   action 2: one-shot cancelled at absolute time aux (maybe too late)
#   action 3: PeriodicTimer(period) echoing one-shots onto its own
#             next tick, stopped at absolute time aux
#   action 4: one-shot that re-arms itself once, at now+aux
#   action 5: one-shot at *absolute* time delay whose fire call_soons a
#             follow-up
#   action 6: one-shot that call_soons a follow-up and cancels it
#   action 7: one-shot cancelled twice, at absolute time aux (maybe
#             after it fired), logging the pending count each time
#   action 8: one-shot cancelled from its own timestamp, by an event
#             scheduled before it (cancels) or after it (too late)
#   action 9: at time delay, 1-3 pieces of work period long, advanced
#             off the heap
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
_timer = st.tuples(_delays, st.integers(min_value=0, max_value=9),
                   _aux, _periods)
_workload = st.lists(_timer, min_size=1, max_size=25)
_chunks = st.lists(st.floats(min_value=0.0, max_value=60_000.0,
                             allow_nan=False, allow_infinity=False),
                   max_size=3).map(sorted)


def _schedule_workload(sim, spec, log, done):
    for i, (delay, action, aux, period) in enumerate(spec):
        if action == 0:
            sim.at(delay, lambda i=i: log.append((i, sim.now)))
        elif action == 1:
            def chained(i=i, aux=aux):
                log.append((i, sim.now))
                sim.at(aux, lambda i=i: log.append((i, sim.now, "follow")))
            sim.at(delay, chained)
        elif action == 2:
            event = sim.at(delay, lambda i=i: log.append((i, sim.now)))
            sim.at(aux, sim.cancel, event)
        elif action == 3:
            def tick(i=i, period=period):
                log.append((i, sim.now))
                # Lands on the next tick's instant, after it.
                sim.at(period, lambda i=i: log.append((i, sim.now, "echo")))
            timer = PeriodicTimer(sim, period, tick)
            sim.at(aux, timer.stop)
        elif action == 4:
            # Every action-4 timer runs this same code; the arguments
            # say whose it is.
            def rearming(i=i, aux=aux, again=True):
                log.append((i, sim.now))
                if again:
                    sim.at(aux, rearming, i, aux, False)
            sim.at(delay, rearming)
        elif action == 5:
            def soonish(i=i):
                log.append((i, sim.now))
                sim.call_soon(lambda i=i: log.append((i, sim.now, "soon")))
            sim.schedule(delay, soonish)
        elif action == 6:
            def fickle(i=i):
                log.append((i, sim.now))
                sim.cancel(sim.call_soon(lambda i=i: log.append((i, "never"))))
            sim.at(delay, fickle)
        elif action == 7:
            event = sim.at(delay, lambda i=i: log.append((i, sim.now)))

            def cancel_twice(i=i, event=event):
                for _ in range(2):
                    sim.cancel(event)
                    log.append((i, sim.now, "pending", sim.pending))
            sim.schedule(aux, cancel_twice)
        elif action == 8:
            def target(i=i):
                log.append((i, sim.now))
            if int(aux) % 2:
                event = sim.schedule(delay, target)
                sim.schedule(delay, sim.cancel, event)
            else:
                sim.schedule(delay, lambda: sim.cancel(event))
                event = sim.schedule(delay, target)
        elif action == 9:
            sim.schedule(delay, _Lazy, sim, i, period, 1 + int(aux) % 3, log, done)


def _run_workload(sim, spec, chunks):
    log, done = [], []
    _schedule_workload(sim, spec, log, done)
    for until in chunks:
        sim.run(until=until)
    sim.run()
    return log, sorted(done), sim.now


def _run_workload_stop_step(sim, spec, chunks, stops, steps):
    """Drain the workload while interleaving stop(), run(until), step()
    and peek().

    Each stop() may end a run(until) chunk early; the final drain loops
    run() once per possible stop so the queue always empties.
    """
    log, done = [], []
    _schedule_workload(sim, spec, log, done)
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
    return log, sorted(done)


@battery(60)
@given(spec=_workload, chunks=_chunks)
# The horizon moves from 10 to 3, and back to its corpse's key at 10;
# with a run ending at 3.5, the catch-up at 3 discards that corpse from
# the heap head first, so it cannot come back to life.
@example(spec=[(0.0, 9, 1.0, 10.0), (1.0, 9, 0.0, 2.0)], chunks=[])
@example(spec=[(0.0, 9, 1.0, 10.0), (1.0, 9, 0.0, 2.0)], chunks=[2.5, 3.5])
def test_fire_order_identical_across_timer_structures(spec, chunks):
    assert (_run_workload(Simulator(seed=7), spec, chunks)
            == _run_workload(ReferenceScheduler(), spec, chunks))


_stops = st.lists(st.floats(min_value=0.0, max_value=60_000.0,
                            allow_nan=False, allow_infinity=False),
                  max_size=3)


@battery(60)
@given(spec=_workload, chunks=_chunks, stops=_stops,
       steps=st.integers(min_value=0, max_value=4))
def test_stop_step_interleaving_identical_across_structures(spec, chunks,
                                                            stops, steps):
    # Includes the regression guard for run(until) ended by stop(): it
    # must not advance the clock past still-pending events, or a later
    # run() fires them and sends the clock backwards.
    reference = _run_workload_stop_step(ReferenceScheduler(), spec, chunks,
                                        stops, steps)
    times = [entry[1] for entry in reference[0] if entry[0] != "peek"]
    assert times == sorted(times)  # clock never goes backwards
    assert _run_workload_stop_step(Simulator(seed=7), spec, chunks,
                                   stops, steps) == reference
