"""Physical links.

A :class:`Link` is a full-duplex point-to-point circuit between two
interfaces: per-direction serialization at the link bandwidth, a fixed
propagation delay, and a drop-tail output queue. Links can be failed
and recovered at runtime; observers (the VINI upcall machinery of
Section 6.1, counters, traces) are notified of state changes. A failed
link loses its queued and in-flight packets — exactly the fate-sharing
Section 3.1 demands ("if a physical link fails, the virtual links that
use that physical link should see that failure").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING

from repro.net.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.node import Interface

DEFAULT_BANDWIDTH = 1_000_000_000  # 1 Gb/s
DEFAULT_QUEUE_BYTES = 128 * 1024


class _Channel:
    """One direction of a link: queue -> serializer -> propagation.

    A packet's start is fixed when it is accepted: now, or ``free_at``
    if the serializer is busy; ``send`` pushes its one ``_deliver`` then.
    A waiting packet stays in ``queue`` as ``(start, packet, stamp)``
    until read at or after its start: ``_retire`` counts it as sent, so
    each reader of the queue or the tx counters retires first.
    """

    __slots__ = (
        "sim",
        "link",
        "queue",
        "queued_bytes",
        "free_at",
        "in_flight",
        "tx_packets",
        "tx_bytes",
        "drops",
        "offered",
        "delivered",
        "offered_bytes",
        "delivered_bytes",
        "dropped_bytes",
        "_tx_cache",
        "fluid_bps",
        "_fluid_bw",
        "_fluid_qdelay",
        "_fluid_loss",
        "_fluid_reserved",
        "_fluid_rng",
    )

    def __init__(self, sim: Simulator, link: "Link"):
        self.sim = sim
        self.link = link
        self.queue: Deque[tuple] = deque()
        self.queued_bytes = 0
        self.free_at = 0.0
        # Each accepted packet not yet delivered -> its delivery event,
        # in the order accepted (so the waiting ones come last).
        self.in_flight: Dict[Packet, list] = {}
        self.tx_packets = 0
        self.tx_bytes = 0
        self.drops = 0
        self.offered = 0  # every packet handed to send()
        self.delivered = 0  # every packet handed to the far interface
        self.offered_bytes = 0
        self.delivered_bytes = 0
        self.dropped_bytes = 0
        # Serialization time depends only on wire length; memoize per
        # length with the exact original expression so cached and
        # uncached runs stay float-identical. Keyed against the link
        # bandwidth: Link.bandwidth's setter clears it, so the memo
        # can't go stale if the link is reconfigured mid-run.
        self._tx_cache: Dict[int, float] = {}
        # Fluid coupling (repro.traffic). All zero/None until a
        # FluidTrafficPlane pushes occupancy via set_fluid(); every use
        # below guards on ``self.fluid_bps`` so the disabled path runs
        # the exact original arithmetic — golden traces stay
        # byte-identical with the traffic plane importable but unused.
        self.fluid_bps = 0.0
        self._fluid_bw = 0.0  # bandwidth left for packets while fluid > 0
        self._fluid_qdelay = 0.0
        self._fluid_loss = 0.0
        self._fluid_reserved = 0
        self._fluid_rng = None

    def send(self, packet: Packet, receiver: "Interface") -> bool:
        self.offered += 1
        wire_len = packet.wire_len
        self.offered_bytes += wire_len
        sim, link, queue = self.sim, self.link, self.queue
        now = sim.now
        waits = self.free_at > now
        if waits and queue and queue[0][0] <= now:
            self._retire()
        if not link.up:
            reason = "link_down"
        elif (self.fluid_bps and self._fluid_loss
              and self._fluid_rng.random() < self._fluid_loss):
            # Congestion loss induced by fluid occupancy, drawn from an
            # isolated per-channel stream so no other RNG stream shifts.
            reason = "fluid_congestion"
        elif waits and self.queued_bytes + wire_len > link.queue_bytes - (
                # Fluid backlog occupies part of the drop-tail queue.
                self._fluid_reserved if self.fluid_bps else 0):
            reason = "queue_overflow"
        else:
            start = self.free_at if waits else now
            tx_time, arrival = self._arrival(wire_len)
            self.free_at = start + tx_time
            fr = sim.flight
            tracked = fr.enabled and packet.span is not None
            if waits:
                stamp = None
                if tracked:
                    fr.stage(packet, "link.queue", node=link.name)
                    # Its transit stage opens when it starts.
                    stamp = sim.schedule(
                        start, fr.stage, packet, "link.transit", link.name)
                queue.append((start, packet, stamp))
                self.queued_bytes += wire_len
            else:
                if tracked:
                    # One stage for serialization + propagation: closed
                    # by the receiver's kernel.rx stage at delivery time.
                    fr.stage(packet, "link.transit", node=link.name)
                self.tx_packets += 1
                self.tx_bytes += wire_len
            self.in_flight[packet] = sim.schedule(
                start + arrival, self._deliver, packet, receiver)
            return True
        self.drops += 1
        self.dropped_bytes += wire_len
        sim.trace.drop(packet, reason, link.name)
        return False

    def _arrival(self, wire_len: int) -> tuple:
        """Serialization time of ``wire_len`` bytes, and its delivery
        after its start."""
        tx_time = self._tx_cache.get(wire_len)
        if tx_time is None:
            # With fluid load on the channel, packets serialize at the
            # residual bandwidth; set_fluid() cleared the memo when the
            # residual changed. Without fluid this is the exact
            # original expression (and original float result).
            bw = self._fluid_bw if self.fluid_bps else self.link.bandwidth
            self._tx_cache[wire_len] = tx_time = wire_len * 8 / bw
        arrival = tx_time + self.link.delay
        if self.fluid_bps:
            # Waiting behind fluid-occupied queue slots (M/M/1-shaped
            # estimate computed by the plane at solve time).
            arrival += self._fluid_qdelay
        return tx_time, arrival

    def _retire(self) -> "_Channel":
        """Count the waiting packets that have started as sent."""
        now, queue = self.sim.now, self.queue
        while queue and queue[0][0] <= now:
            wire_len = queue.popleft()[1].wire_len
            self.queued_bytes -= wire_len
            self.tx_packets += 1
            self.tx_bytes += wire_len
        return self

    def _retime(self) -> None:
        """Start the waiting packets over at the channel's new rate or
        fluid delay, keeping each event whose instant holds."""
        sim, in_flight = self.sim, self.in_flight
        waiting, self.queue = self._retire().queue, deque()
        if not waiting:
            return
        start = waiting[0][0]  # where the packet on the wire ends
        for _, packet, stamp in waiting:
            tx_time, arrival = self._arrival(packet.wire_len)
            event = in_flight[packet]
            if event[0] != start + arrival:
                in_flight[packet] = sim.schedule(start + arrival, event[2], *event[3])
                sim.cancel(event)
            if stamp is not None and stamp[0] != start:
                stamp, old = sim.schedule(start, stamp[2], *stamp[3]), stamp
                sim.cancel(old)
            self.queue.append((start, packet, stamp))
            start += tx_time
        self.free_at = start

    def _deliver(self, packet: Packet, receiver: "Interface") -> None:
        self.in_flight.pop(packet, None)
        self.delivered += 1
        self.delivered_bytes += packet.wire_len
        receiver.receive(packet)

    def set_fluid(
        self,
        bps: float,
        queue_delay: float,
        loss: float,
        reserved_bytes: int,
    ) -> None:
        """Install fluid occupancy on this channel (repro.traffic).

        ``bps`` of aggregate background load leaves packets the
        residual bandwidth, adds ``queue_delay`` seconds before
        delivery, drops offered packets with probability ``loss`` from
        a dedicated seeded stream, and reserves ``reserved_bytes`` of
        the drop-tail queue. ``bps=0`` restores the pristine packet
        path (and the pristine serialization memo).
        """
        link = self.link
        if bps > 0.0:
            residual = link.bandwidth - bps
            floor = link.bandwidth * 0.01
            if residual < floor:
                residual = floor
        else:
            residual = 0.0
        if residual != self._fluid_bw:
            # The serialization memo was computed for the old residual
            # (or for the raw bandwidth); never serve stale times.
            self._tx_cache.clear()
            self._fluid_bw = residual
        if loss > 0.0 and self._fluid_rng is None:
            sender = next(
                iface for iface, ch in link._channels.items() if ch is self
            )
            self._fluid_rng = self.sim.rng(
                f"traffic.loss.{link.name}.{sender.node.name}"
            )
        self.fluid_bps = bps
        self._fluid_qdelay = queue_delay
        self._fluid_loss = loss
        self._fluid_reserved = reserved_bytes
        if self.queue:
            self._retime()

    def flush(self) -> None:
        """Drop everything queued, then everything on the wire (link
        failure). The serializer stays busy until the packet on the wire
        would have ended."""
        sim, waiting = self.sim, self._retire().queue
        if waiting:
            self.free_at = waiting[0][0]
        for event in [*self.in_flight.values(), *(s for _, _, s in waiting if s)]:
            sim.cancel(event)
        sent = [*self.in_flight]
        wire = len(sent) - len(waiting)
        trace, name = sim.trace, self.link.name
        for packet in sent[wire:] + sent[:wire]:
            self.drops += 1
            self.dropped_bytes += packet.wire_len
            trace.drop(packet, "link_failed", name)
        waiting.clear()
        self.queued_bytes = 0
        self.in_flight.clear()


class Link:
    """A full-duplex point-to-point link between two interfaces."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float = DEFAULT_BANDWIDTH,
        delay: float = 0.0,
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
    ):
        # Written so that NaN fails too: it would build, then stop the
        # run inside the engine ("cannot schedule at t=nan").
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        if not queue_bytes >= 0:
            raise ValueError(f"queue_bytes must be >= 0, got {queue_bytes!r}")
        self.sim = sim
        self._channels = {}  # Interface -> _Channel (keyed by sender)
        self._peer = {}  # sender -> receiver, once both ends attach
        self.bandwidth = bandwidth  # property: validates + resets memos
        self.delay = delay
        self.queue_bytes = queue_bytes
        self.name = ""  # "<a>--<b>" once both ends attach
        self.up = True
        self.endpoints: List["Interface"] = []
        self.observers: List[Callable[["Link", bool], None]] = []

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @bandwidth.setter
    def bandwidth(self, value: float) -> None:
        # The per-channel serialization-time memo is keyed only by
        # wire length; route reconfiguration through this setter so
        # the memo can never serve times computed for an old rate.
        if not value > 0:
            raise ValueError(f"bandwidth must be positive, got {value!r}")
        self._bandwidth = value
        for channel in self._channels.values():
            channel._tx_cache.clear()
            if channel.queue:
                channel._retime()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, interface: "Interface") -> None:
        if len(self.endpoints) >= 2:
            raise ValueError(f"link {self.name} already has 2 endpoints")
        self.endpoints.append(interface)
        self._channels[interface] = _Channel(self.sim, self)
        if len(self.endpoints) == 2:
            a, b = self.endpoints
            self._peer = {a: b, b: a}
            self.name = f"{a.node.name}--{b.node.name}"
            self._register_metrics()

    def _register_metrics(self) -> None:
        """Publish pull counters over the per-direction channel ints —
        zero cost on the data path, read at collection time."""
        metrics = self.sim.metrics
        if not metrics.enabled:
            return
        for iface, channel in self._channels.items():
            labels = dict(link=self.name, sender=iface.node.name)
            c = channel  # bind per iteration for the closures
            metrics.counter("link.offered_pkts", fn=lambda c=c: c.offered, **labels)
            metrics.counter("link.delivered_pkts", fn=lambda c=c: c.delivered, **labels)
            metrics.counter("link.dropped_pkts", fn=lambda c=c: c.drops, **labels)
            metrics.counter("link.offered_bytes", fn=lambda c=c: c.offered_bytes, **labels)
            metrics.counter("link.delivered_bytes", fn=lambda c=c: c.delivered_bytes, **labels)
            metrics.counter("link.dropped_bytes", fn=lambda c=c: c.dropped_bytes, **labels)
            metrics.counter("link.tx_bytes", fn=lambda c=c: c._retire().tx_bytes, **labels)
            metrics.gauge("link.queue_bytes", fn=lambda c=c: c._retire().queued_bytes, **labels)
            metrics.gauge("link.queue_pkts", fn=lambda c=c: len(c._retire().queue), **labels)

    def other_end(self, interface: "Interface") -> "Interface":
        try:
            return self._peer[interface]
        except KeyError:
            raise ValueError(f"{interface!r} is not attached to {self.name}") from None

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def transmit(self, sender: "Interface", packet: Packet) -> bool:
        """Send ``packet`` from ``sender`` toward the other endpoint."""
        if not self._peer:
            raise RuntimeError(f"link {self.name} is not fully attached")
        return self._channels[sender].send(packet, self._peer[sender])

    # ------------------------------------------------------------------
    # Failure injection (the paper's controlled network events)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Take the link down, losing queued and in-flight packets."""
        if not self.up:
            return
        self.up = False
        for channel in self._channels.values():
            channel.flush()
        self.sim.trace.log("link_state", link=self.name, up=False)
        for observer in list(self.observers):
            observer(self, False)

    def recover(self) -> None:
        """Bring the link back up."""
        if self.up:
            return
        self.up = True
        self.sim.trace.log("link_state", link=self.name, up=True)
        for observer in list(self.observers):
            observer(self, True)

    def observe(self, callback: Callable[["Link", bool], None]) -> None:
        """Register for up/down notifications (basis for VINI upcalls)."""
        self.observers.append(callback)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self, sender: Optional["Interface"] = None) -> dict:
        channels = [
            channel._retire() for channel in
            ([self._channels[sender]] if sender else self._channels.values())
        ]
        return {
            "tx_packets": sum(c.tx_packets for c in channels),
            "tx_bytes": sum(c.tx_bytes for c in channels),
            "drops": sum(c.drops for c in channels),
            "queued_bytes": sum(c.queued_bytes for c in channels),
            "offered": sum(c.offered for c in channels),
            "delivered": sum(c.delivered for c in channels),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {self.bandwidth / 1e6:.0f}Mb/s {self.delay * 1e3:.1f}ms {state}>"
