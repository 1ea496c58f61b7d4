"""The discrete-event engine.

A :class:`Simulator` owns the pending-event set. Each event is a plain
callback; there are no threads and no real time. Code that needs
randomness draws it from named, seeded streams
(:class:`repro.sim.rand.RandomStreams`) so that two runs with the same
seed produce byte-identical traces.

The pending set is one binary heap of ``[time, seq, fn, args]`` lists,
each also the handle of its event (``h[0]`` is its time). ``seq`` is a
per-simulator counter bumped on every insertion, so events fire in
strict ``(time, seq)`` order: by time, and among equal times in the
order they were scheduled; no two entries share a key, so the heap
never compares past ``seq``. Every event is one-shot, armed by one push
(``at``, ``schedule`` or ``call_soon``, and the horizon below); a
:class:`repro.sim.timer.PeriodicTimer` pushes its next event from its
own callback. ``at`` inlines ``schedule`` (the per-packet path), and
``run`` inlines ``step``'s and ``peek``'s :meth:`Simulator._next`.

Cancellation (:meth:`Simulator.cancel`) is lazy: the entry's ``fn``
becomes None, as a fired one's does, and the corpse stays in the heap
until it reaches the head, or until corpses exceed
:data:`MAX_CORPSE_SHARE` of the heap and it is rebuilt without them, so
cancellation churn (restartable dead timers, TCP RTO) cannot bloat it.

A model may also advance off the heap (the CPU's standing demand):
:meth:`Simulator.due` registers work ending at a given time and returns
a mark, the ``seq`` of the last event scheduled before it. One *horizon*
event waits at the earliest such work, keyed ``(time, mark + 0.5)``
where an event for it would have fired, and there the
:attr:`Simulator.catch_ups` complete the work that comes first, setting
the clock to each piece's end. A horizon superseded by an earlier one
is a corpse kept by its key: armed there again, the corpse comes back
to life rather than tie with a new entry.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_RECORDER
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceCollector

_INF = float("inf")

#: Rebuild the heap once cancelled entries exceed this fraction of it
#: (and :data:`MIN_CORPSES` in number, so small heaps are left alone).
MAX_CORPSE_SHARE = 0.25
MIN_CORPSES = 64


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
        series is pull-based (read at collection time), so the hot
        loop pays nothing for it.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.seed = seed
        self.random = RandomStreams(seed)
        self.trace = TraceCollector(self)
        self.metrics = MetricsRegistry()
        # Causal flight recorder (repro.obs.spans). Defaults to the
        # shared null object; FlightRecorder(sim).install() swaps in a
        # live one. Instrumented sites guard on ``sim.flight.enabled``.
        self.flight = NULL_RECORDER
        self._heap: List[list] = []
        self._seq = 0
        self._packet_ids = 0
        self._running = False
        self._stopped = False
        # How far the horizon may take lazy models: the run's ``until``,
        # or the instant ``step`` fires.
        self._bound = _INF
        self._heap_cancelled = 0
        # Models advanced off the heap, the horizon and its key, the
        # superseded horizons still in the heap by key, and the key
        # their work must come before while it fires.
        self.catch_ups: List[Callable[[], Optional[Tuple[float, int]]]] = []
        self._horizon: Optional[list] = None
        self._horizon_key: Tuple[float, int] = (_INF, 0)
        self._parked: Dict[Tuple[float, int], list] = {}
        self._limit: Tuple[float, float] = (-_INF, 0)
        # The engine's one series: pull-only, read at collection time —
        # no per-event cost in the dispatch loop.
        self.metrics.counter("sim.events_scheduled", fn=lambda: self._seq)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` at absolute simulated ``time``.

        Scheduling in the past, or at NaN, raises ``ValueError``.
        """
        if not time >= self.now:
            # A past (or NaN) event would silently reorder history.
            raise ValueError(
                f"cannot schedule at t={time:.9f}, now is t={self.now:.9f}"
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def at(self, delay: float, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:  # NaN too
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        # schedule, inlined: a non-negative delay cannot reach the past.
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def call_soon(self, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` at the current time, after pending events."""
        return self.schedule(self.now, fn, *args)

    def cancel(self, entry: list) -> None:
        """Keep event ``entry`` from running (a no-op once it fired), and
        let go of its callback and arguments: a corpse holds nothing."""
        if entry[2] is not None:
            entry[2], entry[3] = None, ()
            self._heap_cancelled = corpses = self._heap_cancelled + 1
            if corpses > MIN_CORPSES and corpses > MAX_CORPSE_SHARE * len(self._heap):
                self._compact_heap()

    def _compact_heap(self) -> None:
        # In place: ``run`` holds the list across callbacks that cancel.
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapq.heapify(heap)
        self._heap_cancelled = 0
        self._parked.clear()

    def due(self, time: float) -> int:
        """Register work, begun now, ending at ``time``; returns its mark."""
        self._arm(time, self._seq)
        return self._seq

    def is_due(self, time: float, mark: int) -> bool:
        """Asked while the horizon fires: whether work registered at
        ``mark``, ending at ``time``, comes before the next event and bound."""
        return (time, mark) < self._limit

    def _arm(self, time: float, mark: int) -> None:
        key = (time, mark)
        if key < self._horizon_key:
            horizon = self._horizon
            if horizon is not None:
                # cancel, without a compaction that would drop the corpse
                horizon[2] = None
                self._heap_cancelled += 1
                self._parked[self._horizon_key] = horizon
            heap = self._heap
            entry = self._parked.pop(key, None)
            # A corpse still in the heap is at or after its head.
            if entry is not None and heap and (heap[0] is entry or heap[0] < entry):
                entry[2] = self._catch_up
                self._heap_cancelled -= 1
            else:
                entry = [time, mark + 0.5, self._catch_up, ()]
                heapq.heappush(heap, entry)
            self._horizon, self._horizon_key = entry, key

    def _catch_up(self) -> None:
        """The horizon fires: catch the models up to the next event."""
        head = self._next()
        head = (_INF, 0) if head is None else (head[0], head[1])
        # Every parked corpse keyed before the head has left the heap.
        for key in [key for key in self._parked if key < head]:
            del self._parked[key]
        self._limit = head if head[0] <= self._bound else (self._bound, _INF)
        # Work registered from here on is in some model's answer.
        self._horizon, self._horizon_key = None, (-_INF, 0)
        latest, left = self.now, (_INF, 0)
        for catch_up in self.catch_ups:
            key = catch_up()
            if key is not None and key < left:
                left = key
            latest = max(latest, self.now)
        # Each model set the clock to its own last piece's end.
        self.now = latest
        self._horizon_key = (_INF, 0)
        self._arm(*left)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next(self) -> Optional[list]:
        """The next live event, left at the heap head, or None. Corpses
        met on the way are discarded."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._heap_cancelled -= 1
        return heap[0] if heap else None

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
                entry = heap[0]
                time, _seq, fn, args = entry
                if fn is None:
                    heappop(heap)
                    self._heap_cancelled -= 1
                    continue
                if time > bound:
                    break
                heappop(heap)
                self.now = time
                entry[2] = None
                fn(*args)
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
        entry = self._next()
        if entry is None:
            return False
        heapq.heappop(self._heap)
        self.now = self._bound = entry[0]
        fn, entry[2] = entry[2], None
        fn(*entry[3])
        return True

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None."""
        entry = self._next()
        return None if entry is None else entry[0]

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events, in O(1)."""
        return len(self._heap) - self._heap_cancelled

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
        return f"<Simulator t={self.now:.6f} pending={self.pending}>"
