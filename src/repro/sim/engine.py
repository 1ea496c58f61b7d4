"""The discrete-event engine.

A :class:`Simulator` owns the pending-event set. Each event is a plain
callback; there are no threads and no real time. Code that needs
randomness draws it from named, seeded streams
(:class:`repro.sim.rand.RandomStreams`) so that two runs with the same
seed produce byte-identical traces.

The pending set is one binary heap of ``(time, seq, event)`` tuples.
``seq`` is a per-simulator counter bumped on every insertion, so events
fire in strict ``(time, seq)`` order: by time, and among equal times in
the order they were scheduled. Every insertion goes through
:meth:`Simulator._push`, and ``run``, ``step`` and ``peek`` all find the
next event through :meth:`Simulator._next`, so that order is decided in
exactly two places.

Cancellation is lazy: a cancelled event stays in the heap as a corpse
until it reaches the head, or until corpses exceed
:data:`MAX_CORPSE_SHARE` of the heap and it is rebuilt without them, so
cancellation churn (restartable dead timers, TCP RTO) cannot bloat it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

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

    ``interval`` > 0 makes the event periodic: the engine re-arms it in
    place after each firing, with a fresh sequence number, so periodic
    timers allocate nothing per tick.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "interval", "sim", "queued")

    def __init__(self, fn: Callable, args: tuple, sim: "Simulator",
                 interval: float = 0.0):
        self.time = 0.0
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.interval = interval
        self.sim = sim
        # True while a live heap entry refers to this event.
        self.queued = False

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call twice."""
        if self.cancelled:
            return
        self.cancelled = True
        self.interval = 0.0
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
        # Wall-clock hook for repro.obs.live: polled between events;
        # returns how many events to skip before the next poll.
        # Uninstalled cost is one attribute load + None test per event.
        self._live_hook = None
        self._heap: List[tuple] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._live = 0
        self._heap_cancelled = 0
        # call_unique coalescing: callable -> its one pending event.
        self._unique: Dict[Callable, Event] = {}
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
        if time < self.now:
            # A past event would silently reorder history and mask bugs.
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

        Scheduling in the past raises ``ValueError``.
        """
        return self._push(Event(fn, args, self), time)

    def at(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self._push(Event(fn, args, self), self.now + delay)

    def call_soon(self, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at the current time, after pending events."""
        return self._push(Event(fn, args, self), self.now)

    def call_unique(self, fn: Callable) -> Event:
        """Run ``fn()`` at the current time, coalescing duplicates.

        While a prior ``call_unique(fn)`` for the *same* callable is
        still pending, further calls return that pending event instead
        of scheduling another — the deferred-work idiom for components
        that get dirtied many times per timestep (the fluid traffic
        plane's rate re-solve) but must act once. The registration
        clears when the event fires, so ``fn`` can re-arm itself.
        """
        pending = self._unique.get(fn)
        if pending is not None:
            return pending
        event = self.call_soon(self._fire_unique, fn)
        self._unique[fn] = event
        return event

    def _fire_unique(self, fn: Callable) -> None:
        self._unique.pop(fn, None)
        fn()

    def schedule_periodic(self, interval: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` every ``interval`` seconds, starting one
        interval from now.

        The engine re-arms the returned event in place after each
        firing (fresh sequence number, no allocation). Cancel it to
        stop the series.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        return self._push(Event(fn, args, self, interval), self.now + interval)

    def reschedule(self, event: Event, time: float) -> Event:
        """Re-arm a fired event at ``time`` without allocating a new one.

        Only valid for an event that is not queued (i.e. it has fired)
        and was not cancelled; :class:`repro.sim.timer.PeriodicTimer`
        uses this to avoid a per-tick Event allocation.
        """
        if event.queued:
            raise RuntimeError("cannot reschedule an event that is still queued")
        if event.cancelled:
            raise RuntimeError("cannot reschedule a cancelled event")
        return self._push(event, time)

    def _compact_heap(self) -> None:
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._heap_cancelled = 0

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

    def _fire(self, event: Event) -> None:
        """Pop ``event`` (the heap head), advance the clock to it, re-arm
        it if periodic, and run its callback."""
        heapq.heappop(self._heap)
        self.now = time = event.time
        event.queued = False
        self._live -= 1
        if event.interval:
            # Re-armed before the callback runs, so the callback can
            # cancel its own series.
            self._push(event, time + event.interval)
        event.fn(*event.args)

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue.

        Runs until the queue is empty, :meth:`stop` is called, or the
        next event is later than ``until`` (in which case the clock is
        advanced exactly to ``until``). Returns the final clock value.
        """
        if self._running:
            raise RuntimeError("simulator is re-entrant: run() called from event")
        self._running = True
        self._stopped = False
        bound = _INF if until is None else until
        next_event = self._next
        fire = self._fire
        hook_wait = 0
        try:
            while not self._stopped:
                hook = self._live_hook
                if hook is not None:
                    hook_wait -= 1
                    if hook_wait <= 0:
                        hook_wait = hook()
                        if self._stopped:
                            break
                event = next_event(bound)
                if event is None:
                    break
                fire(event)
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
        self._fire(event)
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

    def rng(self, stream: str):
        """Named deterministic random stream (see RandomStreams)."""
        return self.random.stream(stream)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.6f} pending={self._live}>"
