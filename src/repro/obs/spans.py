"""Causal flight-recorder: per-packet span tracing (`sim.flight`).

`repro.obs.metrics` answers *how much* (p95 RTT, queue depth); this
module answers *why one packet was slow*. It is an OpenTelemetry-style
tracing layer riding the COW packet model:

* A :class:`SpanContext` (trace id / span id / parent id) is carried on
  ``Packet.span`` and shared **by reference** between a packet, its
  copy-on-write clones, the inner packet of a tunnel encapsulation, and
  the ICMP echo reply — so one ping *flight* (request + reply) is a
  single trace no matter how many times it is encapsulated or copied.
* Instrumented components call :meth:`FlightRecorder.stage` at every
  hand-off (tap read queue, CPU run-queue, Click elements, tunnel
  encap/decap, link serialization + propagation, kernel receive).
  Stages follow a *transition* model: opening stage N closes stage N-1
  at the same instant, so the per-stage durations of a completed flight
  tile ``[start, end]`` exactly and sum to the measured RTT.
* Control-plane causality (Fig 8) is recorded as an explicit span tree:
  OSPF neighbor-down / LSA receive -> SPF hold-down wait -> SPF
  recompute -> FIB update, and :meth:`mark_reroute` links the *first
  data packet* forwarded by the rerouting node after the FIB update
  back to that update.

Zero cost when disabled: ``sim.flight`` defaults to the shared
:data:`NULL_RECORDER` (``enabled`` is ``False``), the same null-object
pattern as ``NULL_METRIC``, and instrumented call sites guard on
``fr.enabled``. The recorder is *passive* — it never schedules events —
so even when enabled the simulation event stream is byte-identical
(golden-trace tests assert both).

Export: :class:`repro.obs.export.FlightStream` writes every completed
flight as one JSONL record, and :func:`repro.obs.export.perfetto_events`
renders such records as Chrome trace events loadable in Perfetto / in
``chrome://tracing``; ``python -m repro.obs flight`` is the CLI.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SpanContext",
    "Span",
    "Flight",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_RECORDER",
]

RETENTION_POLICIES = ("tail", "slowest")


class SpanContext:
    """Trace identity carried on a packet (``Packet.span``).

    One context object is allocated per flight and *shared by
    reference*: COW clones, tunnel inner/outer packets and the echo
    reply all point at the same object, and :meth:`FlightRecorder.stage`
    updates ``span_id``/``parent_id`` in place as the flight moves so
    the context always names the current span.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: int, span_id: int, parent_id: int = 0):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SpanContext(trace={self.trace_id}, span={self.span_id}, "
            f"parent={self.parent_id})"
        )


class Span:
    """One named interval (or instant, when ``end == start``)."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node",
                 "start", "end", "meta")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int,
        name: str,
        node: str,
        start: float,
        end: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end = end
        self.meta = meta

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span {self.name}@{self.node} trace={self.trace_id} "
            f"[{self.start!r}, {self.end!r}]>"
        )


class Flight:
    """One traced packet journey: a root span plus its stage children.

    ``spans`` holds the completed stage spans in traversal order; they
    tile ``[spans[0].start, end]``, so ``sum(s.duration for s in spans)
    == duration`` exactly (stage N opens at the instant stage N-1
    closes, and the final stage closes at ``flight_end`` time).
    """

    __slots__ = ("trace_id", "root_id", "name", "node", "start", "end",
                 "status", "meta", "spans", "_open_stage")

    def __init__(self, trace_id: int, root_id: int, name: str, node: str,
                 start: float, meta: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.root_id = root_id
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.status = "open"
        self.meta = meta
        self.spans: List[Span] = []
        self._open_stage: Optional[Span] = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def stage_durations(self) -> List[Tuple[str, str, float]]:
        """``(name, node, seconds)`` per stage, in traversal order."""
        return [(s.name, s.node, s.duration) for s in self.spans]

    def stage_totals(self) -> Dict[str, float]:
        """Total seconds per stage name, aggregated across the flight."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flight #{self.trace_id} {self.name} from {self.node} "
            f"{self.status} dur={self.duration!r} stages={len(self.spans)}>"
        )


class FlightRecorder:
    """Collects flights (data plane) and causal spans (control plane).

    Parameters
    ----------
    sim:
        The simulator whose clock stamps spans. :meth:`install` sets
        ``sim.flight`` to this recorder.
    capacity:
        Bound on *retained* completed flights (the ring buffer).
    policy:
        What to keep once ``capacity`` completed flights have been seen:
        ``"tail"`` (last N, a ring buffer) or ``"slowest"`` (N largest
        end-to-end durations).
    stream:
        Optional :class:`repro.obs.export.FlightStream`. Every completed
        flight is handed to it *before* retention applies, so the
        streamed trace is complete even when ``capacity`` keeps almost
        nothing in memory. Finalize with :meth:`close_stream`.

    Ids (trace and span) are small deterministic integers drawn from
    recorder-local counters, so same-seed runs export byte-identical
    traces.
    """

    enabled = True

    def __init__(self, sim, capacity: int = 1024, policy: str = "tail",
                 stream=None):
        if policy not in RETENTION_POLICIES:
            raise ValueError(
                f"unknown retention policy {policy!r}; "
                f"expected one of {RETENTION_POLICIES}"
            )
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self.policy = policy
        self._next_trace = 1
        self._next_span = 1
        # Open flights by trace id (insertion ordered for determinism).
        self._open: Dict[int, Flight] = {}
        # Retained completed flights. "tail" uses a maxlen deque;
        # "slowest" a min-heap of (duration, trace_id, flight).
        self._done: Any
        if policy == "tail":
            self._done = deque(maxlen=capacity)
        else:
            self._done = []
        # Control-plane spans: open (by id) and completed (bounded).
        self._cp_open: Dict[int, Span] = {}
        self._cp_done: deque = deque(maxlen=max(capacity, 4096))
        # mark_reroute() registrations: scope -> fib-update span.
        self._pending_reroute: Dict[str, Span] = {}
        # Counters (exported by the CLI's summary line).
        self.flights_started = 0
        self.flights_completed = 0
        self.flights_evicted = 0
        self.stream = stream

    def install(self) -> "FlightRecorder":
        """Make this recorder the simulator's ``sim.flight``."""
        self.sim.flight = self
        return self

    def close_stream(self):
        """Finalize the attached :class:`FlightStream` (flush the tail
        chunk and append control-plane spans). No-op without a stream;
        returns the streamed path, or ``None``."""
        if self.stream is None:
            return None
        path = self.stream.close(self.control_spans())
        from repro.obs.archive import note_artifact
        note_artifact(self.sim, path, "flight_jsonl")
        return path

    # ------------------------------------------------------------------
    # Data plane: flights
    # ------------------------------------------------------------------
    def _new_span_id(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        return span_id

    def flight_begin(
        self,
        packet,
        name: str,
        node: str = "",
        stage: str = "origin",
        **meta: Any,
    ) -> SpanContext:
        """Open a flight rooted at ``packet`` and stamp its context.

        The first stage (``stage``) opens immediately at the flight's
        start time so the stage spans tile the whole flight.
        """
        now = self.sim.now
        trace_id = self._next_trace
        self._next_trace += 1
        root_id = self._new_span_id()
        ctx = SpanContext(trace_id, root_id, 0)
        packet.span = ctx
        flight = Flight(trace_id, root_id, name, node, now,
                        meta=meta or None)
        self._open[trace_id] = flight
        self.flights_started += 1
        first = Span(trace_id, self._new_span_id(), root_id, stage, node, now)
        flight._open_stage = first
        ctx.span_id = first.span_id
        ctx.parent_id = root_id
        return ctx

    def stage(self, packet, name: str, node: str = "") -> None:
        """Record that ``packet`` entered stage ``name`` at ``node``.

        Closes the flight's previous stage at the current sim time and
        opens the new one, keeping the stage spans gap-free. No-op for
        untracked packets or already-finished flights.
        """
        ctx = packet.span
        if ctx is None:
            return
        flight = self._open.get(ctx.trace_id)
        if flight is None:
            return
        now = self.sim.now
        open_stage = flight._open_stage
        if open_stage is not None:
            open_stage.end = now
            flight.spans.append(open_stage)
        span = Span(ctx.trace_id, self._new_span_id(), flight.root_id,
                    name, node, now)
        flight._open_stage = span
        ctx.span_id = span.span_id
        ctx.parent_id = flight.root_id
        if self._pending_reroute:
            self._link_reroute(node, ctx)

    def flight_end(self, packet, node: str = "", status: str = "ok") -> None:
        """Close ``packet``'s flight (normal completion)."""
        ctx = packet.span
        if ctx is None:
            return
        flight = self._open.pop(ctx.trace_id, None)
        if flight is None:
            return
        self._finish(flight, status)

    def flight_drop(self, packet, reason: str, node: str = "") -> None:
        """Close ``packet``'s flight because the packet was dropped.

        Call sites piggyback on the existing drop/trace hooks; the
        flight is retained with ``status == "dropped:<reason>"`` so
        "why did my packet die" is answerable from the same export.
        """
        ctx = packet.span
        if ctx is None:
            return
        flight = self._open.pop(ctx.trace_id, None)
        if flight is None:
            return
        if node and flight._open_stage is not None:
            flight._open_stage.node = flight._open_stage.node or node
        self._finish(flight, "dropped:" + reason)

    def _finish(self, flight: Flight, status: str) -> None:
        now = self.sim.now
        open_stage = flight._open_stage
        if open_stage is not None:
            open_stage.end = now
            flight.spans.append(open_stage)
            flight._open_stage = None
        flight.end = now
        flight.status = status
        self.flights_completed += 1
        if self.stream is not None:
            self.stream.add(flight)
        self._retain(flight)

    def _retain(self, flight: Flight) -> None:
        if self.policy == "tail":
            if len(self._done) == self.capacity:
                self.flights_evicted += 1
            self._done.append(flight)
        else:  # slowest
            entry = (flight.duration, -flight.trace_id, flight)
            if len(self._done) < self.capacity:
                heapq.heappush(self._done, entry)
            else:
                heapq.heappushpop(self._done, entry)
                self.flights_evicted += 1

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def flights(self) -> List[Flight]:
        """Retained completed flights, ordered by trace id."""
        if self.policy == "slowest":
            items = [entry[2] for entry in self._done]
        else:
            items = list(self._done)
        return sorted(items, key=lambda f: f.trace_id)

    def slowest(self, n: int = 10) -> List[Flight]:
        """The ``n`` retained flights with the largest durations."""
        return sorted(
            self.flights(),
            key=lambda f: (-f.duration, f.trace_id),
        )[:n]

    def open_flights(self) -> List[Flight]:
        """Flights begun but not yet ended (in-transit or lost)."""
        return list(self._open.values())

    def control_spans(self) -> List[Span]:
        """Completed control-plane spans in completion order."""
        return list(self._cp_done)

    # ------------------------------------------------------------------
    # Control plane: causal span trees (Fig 8)
    # ------------------------------------------------------------------
    def span_begin(
        self,
        name: str,
        node: str = "",
        parent: Optional[Span] = None,
        **meta: Any,
    ) -> Span:
        """Open a standalone (non-packet) span, e.g. an OSPF stage.

        With ``parent`` the span joins the parent's trace; otherwise a
        fresh trace (tree root) is created.
        """
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = self._next_trace
            self._next_trace += 1
            parent_id = 0
        span = Span(trace_id, self._new_span_id(), parent_id, name, node,
                    self.sim.now, meta=meta or None)
        self._cp_open[span.span_id] = span
        return span

    def span_end(self, span: Optional[Span]) -> None:
        """Close a span opened with :meth:`span_begin`."""
        if span is None or span.end is not None:
            return
        span.end = self.sim.now
        self._cp_open.pop(span.span_id, None)
        self._cp_done.append(span)

    def instant(
        self,
        name: str,
        node: str = "",
        parent: Optional[Span] = None,
        **meta: Any,
    ) -> Span:
        """A zero-duration span (an event, e.g. "LSA received")."""
        span = self.span_begin(name, node=node, parent=parent, **meta)
        span.end = span.start
        self._cp_open.pop(span.span_id, None)
        self._cp_done.append(span)
        return span

    def mark_reroute(self, scope: str, span: Span) -> None:
        """Arm the control->data causality link for ``scope``.

        The next data-plane :meth:`stage` whose ``node`` equals
        ``scope`` emits a ``reroute.first_packet`` instant parented
        under ``span`` (the FIB-update span), closing the Fig-8 chain:
        LSA receive -> SPF -> FIB update -> first rerouted packet.
        """
        self._pending_reroute[scope] = span

    def _link_reroute(self, node: str, ctx: SpanContext) -> None:
        fib_span = self._pending_reroute.pop(node, None)
        if fib_span is None:
            return
        self.instant(
            "reroute.first_packet",
            node=node,
            parent=fib_span,
            flight=ctx.trace_id,
        )


class NullFlightRecorder:
    """Shared do-nothing recorder (the ``sim.flight`` default).

    Mirrors ``NullMetric``: instrumented hot paths test ``fr.enabled``
    (a class attribute, ``False``) and skip all span work, so tracing
    costs one attribute load + branch per guarded site when off.
    """

    __slots__ = ()

    enabled = False

    def install(self):  # pragma: no cover - symmetry with FlightRecorder
        return self

    def close_stream(self):
        return None

    def flight_begin(self, packet, name, node="", stage="origin", **meta):
        return None

    def stage(self, packet, name, node=""):
        return None

    def flight_end(self, packet, node="", status="ok"):
        return None

    def flight_drop(self, packet, reason, node=""):
        return None

    def span_begin(self, name, node="", parent=None, **meta):
        return None

    def span_end(self, span):
        return None

    def instant(self, name, node="", parent=None, **meta):
        return None

    def mark_reroute(self, scope, span):
        return None

    def flights(self):
        return []

    def slowest(self, n=10):
        return []

    def open_flights(self):
        return []

    def control_spans(self):
        return []


#: The singleton handed out as every simulator's default ``sim.flight``.
NULL_RECORDER = NullFlightRecorder()
