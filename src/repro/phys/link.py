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
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.node import Interface

DEFAULT_BANDWIDTH = 1_000_000_000  # 1 Gb/s
DEFAULT_QUEUE_BYTES = 128 * 1024


class _Channel:
    """One direction of a link: queue -> serializer -> propagation."""

    __slots__ = (
        "sim",
        "link",
        "queue",
        "queued_bytes",
        "transmitting",
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
        self.queue: Deque[Packet] = deque()
        self.queued_bytes = 0
        self.transmitting = False
        self.in_flight: Dict[Packet, Event] = {}  # packet -> delivery event
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
        self.offered_bytes += packet.wire_len
        if not self.link.up:
            reason = "link_down"
        elif (self.fluid_bps and self._fluid_loss
              and self._fluid_rng.random() < self._fluid_loss):
            # Congestion loss induced by fluid occupancy, drawn from an
            # isolated per-channel stream so no other RNG stream shifts.
            reason = "fluid_congestion"
        elif not self.transmitting:
            self._transmit(packet, receiver)
            return True
        elif self.queued_bytes + packet.wire_len > self.link.queue_bytes - (
                # Fluid backlog occupies part of the drop-tail queue.
                self._fluid_reserved if self.fluid_bps else 0):
            reason = "queue_overflow"
        else:
            self.queue.append(packet)
            self.queued_bytes += packet.wire_len
            fr = self.sim.flight
            if fr.enabled and packet.span is not None:
                fr.stage(packet, "link.queue", node=self.link.name)
            return True
        self.drops += 1
        self.dropped_bytes += packet.wire_len
        self.sim.trace.drop(packet, reason, self.link.name)
        return False

    def _transmit(self, packet: Packet, receiver: "Interface") -> None:
        self.transmitting = True
        fr = self.sim.flight
        if fr.enabled and packet.span is not None:
            # One stage for serialization + propagation: closed by the
            # receiver's kernel.rx stage at delivery time.
            fr.stage(packet, "link.transit", node=self.link.name)
        wire_len = packet.wire_len
        tx_time = self._tx_cache.get(wire_len)
        if tx_time is None:
            # With fluid load on the channel, packets serialize at the
            # residual bandwidth; set_fluid() cleared the memo when the
            # residual changed. Without fluid this is the exact
            # original expression (and original float result).
            bw = self._fluid_bw if self.fluid_bps else self.link.bandwidth
            tx_time = wire_len * 8 / bw
            self._tx_cache[wire_len] = tx_time
        self.tx_packets += 1
        self.tx_bytes += wire_len
        self.sim.at(tx_time, self._tx_done, receiver)
        arrival = tx_time + self.link.delay
        if self.fluid_bps:
            # Waiting behind fluid-occupied queue slots (M/M/1-shaped
            # estimate computed by the plane at solve time).
            arrival += self._fluid_qdelay
        self.in_flight[packet] = self.sim.at(arrival, self._deliver, packet, receiver)

    def _tx_done(self, receiver: "Interface") -> None:
        self.transmitting = False
        if self.queue and self.link.up:
            packet = self.queue.popleft()
            self.queued_bytes -= packet.wire_len
            self._transmit(packet, receiver)

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

    def flush(self) -> None:
        """Drop everything queued and in flight (link failure)."""
        for event in self.in_flight.values():
            event.cancel()
        trace, name = self.sim.trace, self.link.name
        for packet in [*self.queue, *self.in_flight]:
            self.drops += 1
            self.dropped_bytes += packet.wire_len
            trace.drop(packet, "link_failed", name)
        self.queue.clear()
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
        name: str = "",
    ):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.sim = sim
        self._channels = {}  # Interface -> _Channel (keyed by sender)
        self._peer = {}  # sender -> receiver, once both ends attach
        self.bandwidth = bandwidth  # property: validates + resets memos
        self.delay = delay
        self.queue_bytes = queue_bytes
        self.name = name
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
        if value <= 0:
            raise ValueError(f"bandwidth must be positive, got {value!r}")
        self._bandwidth = value
        for channel in self._channels.values():
            channel._tx_cache.clear()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, interface: "Interface") -> None:
        if len(self.endpoints) >= 2:
            raise ValueError(f"link {self.name or id(self)} already has 2 endpoints")
        self.endpoints.append(interface)
        self._channels[interface] = _Channel(self.sim, self)
        if len(self.endpoints) == 2:
            a, b = self.endpoints
            self._peer = {a: b, b: a}
            if not self.name:
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
            metrics.counter("link.tx_bytes", fn=lambda c=c: c.tx_bytes, **labels)
            metrics.gauge("link.queue_bytes", fn=lambda c=c: c.queued_bytes, **labels)
            metrics.gauge("link.queue_pkts", fn=lambda c=c: len(c.queue), **labels)

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
        channels = (
            [self._channels[sender]] if sender else list(self._channels.values())
        )
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
