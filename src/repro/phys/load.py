"""Background load generators.

The PlanetLab microbenchmarks (Section 5.1.2) are dominated by one
effect: *other people's slices* contending for the CPU. :class:`CPUHog`
reproduces that contention — a process that always has work queued, in
timeslice-sized chunks drawn from a (optionally heavy-tailed) quantum
distribution. A handful of hogs per node turns a quiet simulated
machine into a busy PlanetLab node; the scheduling latency they inflict
on a default-share Click process produces the jitter, RTT inflation and
socket-buffer loss of Tables 4–6 and Figure 6.
"""

from __future__ import annotations

from typing import Optional

from repro.phys.node import PhysicalNode
from repro.phys.process import Process


class CPUHog:
    """A slice process that consumes every cycle it is offered.

    Its demand stands (:attr:`CPUScheduler.standing`): the scheduler
    queues its work item again, for the chunk :meth:`_next` draws.

    Parameters
    ----------
    quantum:
        Nominal work-chunk size in seconds (a Linux-2.6-era timeslice).
    heavy_tail_prob / heavy_tail_max:
        With this probability a chunk is drawn uniformly from
        ``[quantum, heavy_tail_max]`` instead — modeling occasional
        long non-preemptible stretches (kernel work, cache-cold phases)
        that produce the 80 ms ping outliers of Table 5.
    """

    def __init__(
        self,
        node: PhysicalNode,
        name: str = "hog",
        quantum: float = 0.005,
        heavy_tail_prob: float = 0.02,
        heavy_tail_max: float = 0.060,
        share: float = 1.0,
        rng_stream: Optional[str] = None,
    ):
        self.process = Process(node, name, share=share)
        self.quantum = quantum
        self.heavy_tail_prob = heavy_tail_prob
        self.heavy_tail_max = heavy_tail_max
        self.rng = node.sim.rng(rng_stream or f"hog.{node.name}.{name}")
        self.running = False

    def start(self) -> "CPUHog":
        if not self.running:
            self.running = True
            cpu, process = self.process.cpu, self.process
            held = [*process.queue] + ([cpu._item] if cpu._running is process else [])
            # A live chunk, queued or on the CPU, carries the chain on (_next).
            if all(item.cancelled for item in held):
                cpu.standing.add(process)
                process.exec_after(self._next(), self._next)
        return self

    def stop(self) -> None:
        """Draw no further chunk; a chunk queued or on the CPU still runs,
        and carries the chain on if the hog is started before it ends."""
        self.running = False

    def _next(self) -> Optional[float]:
        """The next chunk, drawn as the last one ends; None once stopped."""
        if not self.running:
            return None
        tail = self.heavy_tail_prob and self.rng.random() < self.heavy_tail_prob
        return self.rng.uniform(self.quantum, self.heavy_tail_max) if tail else self.quantum
