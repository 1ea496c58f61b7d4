"""The discrete-event engine.

A :class:`Simulator` owns the pending-event set. Each event is a plain
callback; there are no threads and no real time. Code that needs
randomness draws it from named, seeded streams
(:class:`repro.sim.rand.RandomStreams`) so that two runs with the same
seed produce byte-identical traces.

The pending set is one binary heap of ``(time, seq, event)`` tuples.
``seq`` is a per-simulator counter bumped on every insertion, so events
fire in strict ``(time, seq)`` order: by time, and among equal times in
the order they were scheduled. Every event is one-shot, armed by one
push: ``at``, ``schedule`` or ``call_soon`` (and the horizon below).
Something that fires again, a :class:`repro.sim.timer.PeriodicTimer`,
pushes its next event from its own callback. Insertions go through
:meth:`Simulator._push`, or its copy inlined in ``at`` (the per-packet
path); ``step`` and ``peek`` find the next event through
:meth:`Simulator._next`, and ``run`` reads the heap head inline the
same way.

Cancellation is lazy: a cancelled event stays in the heap as a corpse
until it reaches the head, or until corpses exceed
:data:`MAX_CORPSE_SHARE` of the heap and it is rebuilt without them, so
cancellation churn (restartable dead timers, TCP RTO) cannot bloat it.

A model may also advance off the heap (the CPU's standing demand):
:meth:`Simulator.due` registers work ending at a given time and returns
a mark, the ``seq`` of the last event scheduled before it. One *horizon*
event waits at the earliest such work, keyed ``(time, mark + 0.5)``
where an event for it would have fired, and there the
:attr:`Simulator.catch_ups` complete the work that comes first, setting
the clock to each piece's end.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_RECORDER
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceCollector

_INF = float("inf")

#: Rebuild the heap once cancelled entries exceed this fraction of it
#: (and :data:`MIN_CORPSES` in number, so small heaps are left alone).
MAX_CORPSE_SHARE = 0.25
MIN_CORPSES = 64


class Event:
    """A handle to a scheduled callback.

    Cancellation is O(1): the event is marked dead, the live-event
    counter drops immediately, and the heap entry is discarded lazily
    (at the heap head, or in bulk when corpses pile up).
    """

    __slots__ = ("time", "fn", "args", "cancelled", "sim", "queued")

    def __init__(self, fn: Callable, args: tuple, sim: "Simulator"):
        self.time = 0.0
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim
        # True while a live heap entry refers to this event.
        self.queued = False

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call twice."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so a corpse waiting in the heap does not keep
        # packets / closures alive.
        self.fn = _noop
        self.args = ()
        if self.queued:
            self.queued = False
            sim = self.sim
            sim._live -= 1
            sim._heap_cancelled += 1
            if (
                sim._heap_cancelled > MIN_CORPSES
                and sim._heap_cancelled > MAX_CORPSE_SHARE * len(sim._heap)
            ):
                sim._compact_heap()

    def __lt__(self, other: "Event") -> bool:
        # Only a horizon and its own corpse tie (Simulator._arm).
        return False

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "active"
        return f"<Event t={self.time:.6f} {state}>"


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named random streams.

    Attributes
    ----------
    now:
        Current simulated time in seconds.
    trace:
        A :class:`TraceCollector` that experiment code and tools use to
        record measurements.
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry` that components
        publish counters/gauges/histograms into. The engine's own
        series are pull-based (read at collection time), so the hot
        loop pays nothing for them.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.seed = seed
        self.random = RandomStreams(seed)
        self.trace = TraceCollector(self)
        self.metrics = MetricsRegistry(self)
        # Causal flight recorder (repro.obs.spans). Defaults to the
        # shared null object; FlightRecorder(sim).install() swaps in a
        # live one. Instrumented sites guard on ``sim.flight.enabled``.
        self.flight = NULL_RECORDER
        self._heap: List[tuple] = []
        self._seq = 0
        self._packet_ids = 0
        self._running = False
        self._stopped = False
        # How far the horizon may take lazy models: the run's ``until``,
        # or the instant ``step`` fires.
        self._bound = _INF
        self._live = 0
        self._heap_cancelled = 0
        # Models advanced off the heap, the horizon and its key, and the
        # key their work must come before while it fires.
        self.catch_ups: List[Callable[[], Optional[Tuple[float, int]]]] = []
        self._horizon: Optional[Event] = None
        self._horizon_key: Tuple[float, int] = (_INF, 0)
        self._limit: Tuple[float, float] = (-_INF, 0)
        # Engine introspection series: pull-only, read at collection
        # time — no per-event cost in the dispatch loop.
        self.metrics.gauge("sim.pending", fn=lambda: self._live)
        self.metrics.gauge("sim.now", fn=lambda: self.now)
        self.metrics.counter("sim.events_scheduled", fn=lambda: self._seq)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(self, event: Event, time: float) -> Event:
        """Queue ``event`` at ``time`` under a fresh sequence number."""
        if not time >= self.now:
            # A past (or NaN) event would silently reorder history.
            raise ValueError(
                f"cannot schedule at t={time:.9f}, now is t={self.now:.9f}"
            )
        self._seq = seq = self._seq + 1
        event.time = time
        event.queued = True
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule(self, time: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated ``time``.

        Scheduling in the past, or at NaN, raises ``ValueError``.
        """
        return self._push(Event(fn, args, self), time)

    def at(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:  # NaN too
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        # _push, inlined: a non-negative delay cannot reach the past.
        event = Event(fn, args, self)
        event.time = time = self.now + delay
        event.queued = True
        self._seq = seq = self._seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def call_soon(self, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at the current time, after pending events."""
        return self._push(Event(fn, args, self), self.now)

    def _compact_heap(self) -> None:
        # In place: ``run`` holds the list across callbacks that cancel.
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._heap_cancelled = 0

    def due(self, time: float) -> int:
        """Register work, begun now, ending at ``time``; returns its mark."""
        self._arm(time, self._seq)
        return self._seq

    def is_due(self, time: float, mark: int) -> bool:
        """Asked while the horizon fires: whether work registered at
        ``mark``, ending at ``time``, comes before the next event and bound."""
        return (time, mark) < self._limit

    def _arm(self, time: float, mark: int) -> None:
        if (time, mark) < self._horizon_key:
            if self._horizon is not None:
                self._horizon.cancel()
            self._horizon = event = Event(self._catch_up, (), self)
            event.time, event.queued = time, True
            self._horizon_key = (time, mark)
            self._live += 1
            heapq.heappush(self._heap, (time, mark + 0.5, event))

    def _catch_up(self) -> None:
        """The horizon fires: catch the models up to the next event."""
        head = self._next(self._bound)
        self._limit = (self._bound, _INF) if head is None else self._heap[0][:2]
        # Work registered from here on is in some model's answer.
        self._horizon, self._horizon_key = None, (-_INF, 0)
        left = (_INF, 0)
        for catch_up in self.catch_ups:
            key = catch_up()
            if key is not None and key < left:
                left = key
        self._horizon_key = (_INF, 0)
        self._arm(*left)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next(self, bound: float = _INF) -> Optional[Event]:
        """The next live event due at or before ``bound``, left at the
        heap head, or None. Corpses met on the way are discarded."""
        heap = self._heap
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._heap_cancelled -= 1
            elif time > bound:
                return None
            else:
                return event
        return None

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue.

        Runs until the queue is empty, :meth:`stop` is called, or the
        next event is later than ``until`` (in which case the clock is
        advanced exactly to ``until``). Returns the final clock value.
        """
        if self._running:
            raise RuntimeError("simulator is re-entrant: run() called from event")
        if until != until:  # NaN: ``time > bound`` would never stop the loop
            raise ValueError(f"until must be a time or None, got {until!r}")
        self._running = True
        self._stopped = False
        self._bound = bound = _INF if until is None else until
        heap, heappop = self._heap, heapq.heappop
        try:
            # _next and step, inlined: this loop runs once per event.
            while heap and not self._stopped:
                time, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    self._heap_cancelled -= 1
                    continue
                if time > bound:
                    break
                heappop(heap)
                self.now = time
                event.queued = False
                self._live -= 1
                event.fn(*event.args)
        finally:
            self._running = False
        # Only fast-forward when the queue genuinely drained up to
        # ``until``. After stop() events may remain before ``until``; a
        # later run() would fire them and send the clock backwards.
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Execute the single next event. Returns False if queue empty."""
        event = self._next()
        if event is None:
            return False
        heapq.heappop(self._heap)
        self.now = self._bound = event.time
        event.queued = False
        self._live -= 1
        event.fn(*event.args)
        return True

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None."""
        event = self._next()
        return None if event is None else event.time

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events. O(1): a live
        counter maintained by schedule/cancel/execution."""
        return self._live

    def uid(self, packet: Any) -> int:
        """``packet``'s id: numbered from 1 in this simulator, in the
        order records first name packets, so same-seed runs agree."""
        uid = packet.uid
        if not uid:
            self._packet_ids = packet.uid = uid = self._packet_ids + 1
        return uid

    def rng(self, stream: str):
        """Named deterministic random stream (see RandomStreams)."""
        return self.random.stream(stream)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.6f} pending={self._live}>"
