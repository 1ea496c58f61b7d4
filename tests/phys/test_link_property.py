"""Property test: a link that crosses in one event against the old two.

:class:`_TwoEventChannel` and :class:`TwoEventLink` below are the link
this repository had before a packet crossed a link in one event, kept
verbatim but for ``sim.cancel`` and the link instruments no reader
used (only ``link.delivered_pkts`` and ``link.dropped_pkts`` are
registered now; the byte counters stay): one ``_tx_done`` event when a packet's
serialization ends, which starts the next waiting packet, then one
``_deliver``. The new :class:`repro.phys.link._Channel` fixes a packet's
start when it is accepted and pushes only ``_deliver``.

Hypothesis draws programs over one link, both directions: bursts of
mixed-size sends at random and at tied instants (some of them tracked
by a flight), queue overflow, fails and recovers in the middle of a
backlog, and ``set_fluid`` and ``Link.bandwidth`` changes while packets
wait. Each operation runs from a ``call_soon`` at its instant, so at a
tie with the end of a serialization it runs after that end on both
sides. Both sides must deliver the same packets at the same float
times in the same order per receiver, drop the same packets for the
same reasons in the same order, agree on every counter, gauge,
``Link.stats()`` and the invariant checker's backlog and in-flight
counts, read at random instants, and give each flight the same stage
sequence.
"""

from collections import deque
from types import SimpleNamespace
from typing import Callable, Deque, Dict, List, Optional

from hypothesis import given, strategies as st

from repro.faults.invariants import InvariantChecker
from repro.net.packet import IPv4Header, OpaquePayload, Packet, PROTO_UDP
from repro.obs.spans import FlightRecorder
from repro.phys.link import Link
from repro.sim import Simulator
from tests.conftest import battery

DEFAULT_BANDWIDTH = 1_000_000_000  # 1 Gb/s
DEFAULT_QUEUE_BYTES = 128 * 1024


class _TwoEventChannel:
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

    def __init__(self, sim: Simulator, link: "TwoEventLink"):
        self.sim = sim
        self.link = link
        self.queue: Deque[Packet] = deque()
        self.queued_bytes = 0
        self.transmitting = False
        self.in_flight: Dict[Packet, list] = {}  # packet -> delivery event
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
            self.sim.cancel(event)
        trace, name = self.sim.trace, self.link.name
        for packet in [*self.queue, *self.in_flight]:
            self.drops += 1
            self.dropped_bytes += packet.wire_len
            trace.drop(packet, "link_failed", name)
        self.queue.clear()
        self.queued_bytes = 0
        self.in_flight.clear()


class TwoEventLink:
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
        self.observers: List[Callable[["TwoEventLink", bool], None]] = []

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
        self._channels[interface] = _TwoEventChannel(self.sim, self)
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
        for iface, channel in self._channels.items():
            labels = dict(link=self.name, sender=iface.node.name)
            c = channel  # bind per iteration for the closures
            metrics.counter("link.delivered_pkts", fn=lambda c=c: c.delivered, **labels)
            metrics.counter("link.dropped_pkts", fn=lambda c=c: c.drops, **labels)

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

    def observe(self, callback: Callable[["TwoEventLink", bool], None]) -> None:
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


# ----------------------------------------------------------------------
# The battery
# ----------------------------------------------------------------------
class _End:
    """A link endpoint that logs each delivery and ends its flight."""

    def __init__(self, side, name):
        self.side, self.node = side, SimpleNamespace(name=name)
        self.received = []

    def receive(self, packet):
        side = self.side
        self.received.append((side.sim.now, side.index[id(packet)]))
        side.recorder.flight_end(packet)


class _Side:
    def __init__(self, link_class, bandwidth, delay, queue_bytes):
        self.sim = sim = Simulator(seed=5)
        sim.trace.enable("drop")
        self.recorder = FlightRecorder(sim, capacity=10_000).install()
        self.link = link_class(sim, bandwidth=bandwidth, delay=delay,
                               queue_bytes=queue_bytes)
        self.ends = [_End(self, "a"), _End(self, "b")]
        for end in self.ends:
            self.link.attach(end)
        self.index: Dict[int, int] = {}
        self.packets: List[Packet] = []
        self.reads = []

    def channels(self):
        return [self.link._channels[end] for end in self.ends]

    def send(self, direction, size, tracked):
        packet = Packet(IPv4Header("10.0.0.1", "10.0.0.2", PROTO_UDP),
                        payload=OpaquePayload(size - 20))
        self.index[id(packet)] = len(self.packets)
        self.packets.append(packet)
        if tracked:
            self.recorder.flight_begin(packet, "probe", node="src")
        self.link.transmit(self.ends[direction], packet)

    def backlog(self, channel):
        """``(queued, in flight)`` as the invariant checker counts them."""
        if self.link.__class__ is Link:
            waiting = len(channel._retire().queue)
            return waiting, len(channel.in_flight) - waiting
        return len(channel.queue), len(channel.in_flight)

    def read(self, when=None):
        if self.link.__class__ is Link:
            checker = object.__new__(InvariantChecker)
            checker.network, checker.sim = None, self.sim
            checker.vini = SimpleNamespace(links={"l": self.link}, nodes={})
            checker.violations, checker._context = [], ""
            checker.check_conservation()
            assert checker.violations == []
            for channel in self.channels():
                channel._retire()
        rows = [(row["name"], sorted(row["labels"].items()), row["value"])
                for row in self.sim.metrics.collect()
                if row["name"].startswith("link.")]
        channels = [(c.offered, c.delivered, c.drops, c.tx_packets,
                     c.tx_bytes, c.queued_bytes, len(c.queue),
                     self.backlog(c)) for c in self.channels()]
        stats = [self.link.stats()] + [self.link.stats(end) for end in self.ends]
        self.reads.append((when or self.sim.now, rows, channels, stats))

    def outcome(self):
        drops = [(r.time, r["reason"], r["where"], r["uid"])
                 for r in self.sim.trace.select("drop")]
        flights = [(f.trace_id, f.status, f.end,
                    [(s.name, s.node, s.start, s.end) for s in f.spans])
                   for f in self.recorder.flights()]
        return ([end.received for end in self.ends], drops, flights,
                self.reads)


def _apply(side, op):
    kind = op[0]
    if kind == "send":
        _, _, direction, sizes, tracked = op
        for size in sizes:
            side.send(direction, size, tracked)
    elif kind == "fail":
        side.link.fail()
    elif kind == "recover":
        side.link.recover()
    elif kind == "fluid":
        _, _, direction, share, qdelay, loss, reserved = op
        channel = side.link._channels[side.ends[direction]]
        channel.set_fluid(share * side.link.bandwidth, qdelay, loss, reserved)
    elif kind == "bandwidth":
        side.link.bandwidth = op[2]
    else:
        side.read()


def _run(link_class, world, ops):
    side = _Side(link_class, *world)
    sim = side.sim
    for op in ops:
        sim.schedule(op[1], sim.call_soon, _apply, side, op)
    sim.run()
    # The old link's clock ends on its last serialization's end.
    side.read(when="end")
    return side.outcome()


# Half the instants come from a coarse grid, so sends, fluid changes,
# fails and reads tie with each other and with serialization ends.
_times = st.one_of(
    st.integers(min_value=0, max_value=80).map(lambda k: k * 0.00025),
    st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
)
_direction = st.integers(min_value=0, max_value=1)
_sends = st.tuples(
    st.just("send"), _times, _direction,
    st.lists(st.sampled_from([40, 64, 500, 1000, 1500]) | st.integers(40, 1500),
             min_size=1, max_size=6),
    st.booleans(),
)
_fluid = st.tuples(
    st.just("fluid"), _times, _direction,
    st.sampled_from([0.0, 0.0, 0.3, 0.7, 0.999]),
    st.sampled_from([0.0, 0.0005, 0.002]),
    st.sampled_from([0.0, 0.0, 0.25]),
    st.sampled_from([0, 0, 1500]),
)
_ops = st.lists(st.one_of(
    _sends, _sends, _sends,
    st.tuples(st.sampled_from(["fail", "recover", "read", "read"]), _times),
    _fluid,
    st.tuples(st.just("bandwidth"), _times,
              st.sampled_from([1e6, 4e6, 8e6, 3.3e7])),
), min_size=1, max_size=30)
_worlds = st.tuples(
    st.sampled_from([1e6, 8e6, 1e7]) | st.floats(min_value=1e6, max_value=1e8),
    st.sampled_from([0.0, 0.001, 0.005]),
    st.sampled_from([1500, 4000, 16000]),
)


@battery(100)
@given(world=_worlds, ops=_ops)
def test_one_event_link_equals_the_two_event_link(world, ops):
    assert _run(Link, world, ops) == _run(TwoEventLink, world, ops)
