"""Processes: the unit of CPU scheduling.

A :class:`Process` models one schedulable task on a physical node (a
Click forwarder, a XORP daemon, an iperf endpoint, a competing slice's
workload). Code that wants CPU calls :meth:`exec_after`, which queues a
work item; the callback runs when the node's CPU scheduler has actually
executed that much work — so computation time, queueing behind other
slices, and preemption all show up in packet timings.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Optional


class WorkItem:
    """One chunk of CPU work: ``cost`` seconds, then ``fn(*args)``.

    A preempted item goes back to the head of its queue as its own
    leftover, ``cost`` the remainder.

    ``packet`` is the packet ``fn`` is handed, if any: a crash that
    cancels the item records its drop, and the scheduler opens a tracked
    one's ``cpu.exec`` stage at dispatch, so run-queue wait and
    execution are attributed separately.
    """

    __slots__ = ("cost", "fn", "args", "cancelled", "packet")

    def __init__(
        self,
        cost: float,
        fn: Callable,
        args: tuple,
        packet: Optional[Any] = None,
    ):
        self.cost = cost
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.packet = packet


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
        if not 0.0 < share < math.inf:
            raise ValueError(f"share must be positive and finite, got {share!r}")
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
        self.cpu = node.cpu
        self.cpu.register(self)

    # ------------------------------------------------------------------
    def exec_after(
        self,
        cost: float,
        fn: Callable,
        *args: Any,
        packet: Optional[Any] = None,
    ) -> None:
        """Queue ``cost`` seconds of CPU work, then call ``fn(*args)``.

        Only a node crash (:meth:`CPUScheduler.crash_flush`) cancels
        queued work: a caller that may no longer want the callback checks
        at delivery (a socket tests ``closed``). ``packet`` (see
        :class:`WorkItem`) is named here: ``cpu.wake`` may start the item.
        """
        if cost < 0:
            raise ValueError(f"negative CPU cost {cost!r}")
        cpu = self.cpu
        self.queue.append(WorkItem(cost, fn, args, packet))
        cpu.wake(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = []
        if self.realtime:
            flags.append("rt")
        if self.reservation:
            flags.append(f"rsv={self.reservation:.0%}")
        detail = f" {' '.join(flags)}" if flags else ""
        return f"<Process {self.node.name}:{self.name}{detail}>"
