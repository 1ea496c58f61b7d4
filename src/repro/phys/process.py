"""Processes: the unit of CPU scheduling.

A :class:`Process` models one schedulable task on a physical node (a
Click forwarder, a XORP daemon, an iperf endpoint, a competing slice's
workload). Code that wants CPU calls :meth:`exec_after`, which queues a
work item; the callback runs when the node's CPU scheduler has actually
executed that much work — so computation time, queueing behind other
slices, and preemption all show up in packet timings.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple


class WorkItem:
    """One chunk of CPU work: ``cost`` seconds, then ``fn(*args)``.

    ``enqueued_at`` is the sim time the work first became runnable;
    the scheduler measures queueing (scheduling latency) against it.
    A preempted item's leftover keeps the original arrival time.

    ``span_packet`` (usually None) is the flight-recorder-tracked packet
    this work item carries; the scheduler opens its ``cpu.exec`` stage
    at dispatch so run-queue wait and execution are attributed
    separately. A preempted item's leftover keeps the packet.
    """

    __slots__ = ("cost", "fn", "args", "cancelled", "enqueued_at", "span_packet")

    def __init__(
        self,
        cost: float,
        fn: Callable,
        args: tuple,
        enqueued_at: float = 0.0,
        span_packet: Optional[Any] = None,
    ):
        self.cost = cost
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.enqueued_at = enqueued_at
        self.span_packet = span_packet


class Process:
    """A schedulable process bound to a node's CPU.

    Parameters mirror the PL-VINI isolation knobs (Section 4.1.2):

    share:
        Proportional fair-share weight (PlanetLab default: 1 per slice).
    reservation:
        Guaranteed minimum CPU fraction (e.g. 0.25 for the 25 % CPU
        reservation used in the paper's PL-VINI experiments).
    realtime:
        Linux real-time priority: a runnable real-time process preempts
        any non-real-time one, eliminating wakeup scheduling latency.
    cpu_cap:
        Non-work-conserving ceiling (Section 6.2: "a non-work-conserving
        scheduler that ensures that each experiment always receives the
        same CPU allocation (i.e., neither less nor more), which is
        necessary for repeatable experiments"). A process at its cap
        idles even when the CPU is free.
    """

    def __init__(
        self,
        node: "PhysicalNode",  # noqa: F821
        name: str,
        share: float = 1.0,
        reservation: float = 0.0,
        realtime: bool = False,
        cpu_cap: Optional[float] = None,
        sliver: Optional["Sliver"] = None,  # noqa: F821
    ):
        if share <= 0:
            raise ValueError(f"share must be positive, got {share!r}")
        if not 0.0 <= reservation <= 1.0:
            raise ValueError(f"reservation must be in [0, 1], got {reservation!r}")
        if cpu_cap is not None and not 0.0 < cpu_cap <= 1.0:
            raise ValueError(f"cpu_cap must be in (0, 1], got {cpu_cap!r}")
        self.node = node
        self.name = name
        self.share = share
        self.reservation = reservation
        self.realtime = realtime
        self.cpu_cap = cpu_cap
        self.sliver = sliver
        self.queue: Deque[WorkItem] = deque()
        self.vruntime = 0.0
        self.cpu_used = 0.0  # lifetime CPU seconds consumed
        # Exponential usage average maintained by the scheduler.
        self.usage_ewma = 0.0
        self._usage_stamp = 0.0
        # Label of this process's cpu.process_seconds series (the CPU
        # scheduler may disambiguate duplicate names at registration).
        self.metric_label = name
        self.index = 0  # registration order on the CPU: its tie-break
        node.cpu.register(self)

    # ------------------------------------------------------------------
    def exec_after(
        self,
        cost: float,
        fn: Callable,
        *args: Any,
        span_packet: Optional[Any] = None,
    ) -> WorkItem:
        """Queue ``cost`` seconds of CPU work, then call ``fn(*args)``.

        Returns the :class:`WorkItem` so callers can cancel it (e.g. a
        socket dropping queued datagrams on close). ``span_packet``
        must be set *here* (not on the returned item) because
        ``cpu.wake`` may dispatch the item synchronously.
        """
        if cost < 0:
            raise ValueError(f"negative CPU cost {cost!r}")
        item = WorkItem(cost, fn, args, self.node.cpu.sim.now, span_packet)
        self.queue.append(item)
        self.node.cpu.wake(self)
        return item

    @property
    def backlog(self) -> float:
        """Seconds of CPU work currently queued."""
        return sum(item.cost for item in self.queue if not item.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = []
        if self.realtime:
            flags.append("rt")
        if self.reservation:
            flags.append(f"rsv={self.reservation:.0%}")
        detail = f" {' '.join(flags)}" if flags else ""
        return f"<Process {self.node.name}:{self.name}{detail}>"
