"""ping: ICMP echo with flood mode and ping(8)-style statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.net.addr import IPv4Address, ip
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    ICMPHeader,
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_ICMP,
)
from repro.phys.node import PhysicalNode
from repro.phys.process import Process
from repro.phys.vserver import Sliver

#: First ICMP ident handed out per simulator (see ``Ping.__init__``).
_IDENT_BASE = 1000
SEND_COST = 5.0e-6
#: ping(8)'s default: 56 data bytes, an 84-byte IP packet.
PAYLOAD = 56
#: A reply later than this after its request is not counted.
TIMEOUT = 10.0


@dataclass
class PingStats:
    """ping(8) summary line: N packets, min/avg/max/mdev, loss."""

    transmitted: int
    received: int
    min_rtt: float
    avg_rtt: float
    max_rtt: float
    mdev: float

    @property
    def loss_pct(self) -> float:
        if self.transmitted == 0:
            return 0.0
        return 100.0 * (self.transmitted - self.received) / self.transmitted

    def __str__(self) -> str:
        return (
            f"{self.transmitted} transmitted, {self.received} received, "
            f"{self.loss_pct:.1f}% loss, rtt min/avg/max/mdev = "
            f"{self.min_rtt * 1e3:.3f}/{self.avg_rtt * 1e3:.3f}/"
            f"{self.max_rtt * 1e3:.3f}/{self.mdev * 1e3:.3f} ms"
        )


class Ping:
    """Send ICMP echoes from a node (optionally inside a sliver/overlay).

    ``interval`` mimics ping's pacing (``ping -f`` is a small interval,
    e.g. 1 ms); ``count`` bounds the number of probes; samples are
    (send_time, seq, rtt) tuples plus per-probe trace records of kind
    ``"ping"`` for the benches.
    """

    def __init__(
        self,
        node: PhysicalNode,
        dst: Union[str, IPv4Address],
        sliver: Optional[Sliver] = None,
        interval: float = 1.0,
        count: Optional[int] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.dst = ip(dst)
        self.sliver = sliver
        if sliver is not None:
            self.process = sliver.create_process("ping")
        else:
            self.process = Process(node, "ping")
        self.interval = interval
        self.count = count
        # The ident counter is per-simulator, not process-global:
        # uniqueness only matters within one sim (icmp_register keys on
        # it), and a per-sim counter keeps same-seed runs byte-identical
        # even when built back to back in one process (the cross-run
        # diff engine asserts this).
        self.ident = getattr(self.sim, "_ping_next_ident", _IDENT_BASE) + 1
        self.sim._ping_next_ident = self.ident
        self.src = sliver.tap.address if sliver is not None and sliver.tap else None
        self.transmitted = 0
        self.received = 0
        self.samples: List[Tuple[float, int, float]] = []
        self._outstanding = {}
        self._running = False
        self._send_event = None
        metrics = self.sim.metrics
        # ident is unique per Ping instance, so sequential pings between
        # the same pair keep separate series.
        labels = dict(src=node.name, dst=str(self.dst), ident=self.ident)
        metrics.counter("ping.transmitted", fn=lambda: self.transmitted, **labels)
        metrics.counter("ping.received", fn=lambda: self.received, **labels)
        self.rtt_hist = metrics.histogram("ping.rtt", **labels)
        node.icmp_register(
            self.ident,
            self._on_reply,
            sliver_name=sliver.slice.name if sliver is not None else None,
        )

    # ------------------------------------------------------------------
    def start(self) -> "Ping":
        if not self._running:
            self._running = True
            self._send_event = self.sim.call_soon(self._send_next)
        return self

    def stop(self) -> None:
        self._running = False
        if self._send_event is not None:
            self.sim.cancel(self._send_event)
            self._send_event = None
        self.node.icmp_unregister(
            self.ident,
            sliver_name=self.sliver.slice.name if self.sliver is not None else None,
        )

    def _send_next(self) -> None:
        if not self._running:
            return
        if self.count is not None and self.transmitted >= self.count:
            self._running = False
            return
        self.transmitted += 1
        seq = self.transmitted
        self.process.exec_after(SEND_COST, self._emit, seq)
        self._send_event = self.sim.at(self.interval, self._send_next)

    def _emit(self, seq: int) -> None:
        now = self.sim.now
        self._outstanding[seq] = now
        src = self.src if self.src is not None else 0
        packet = Packet(
            IPv4Header(src, self.dst, PROTO_ICMP),
            ICMPHeader(ICMP_ECHO_REQUEST, ident=self.ident, seq=seq),
            payload=OpaquePayload(PAYLOAD, data=now, tag="ping"),
        )
        fr = self.sim.flight
        if fr.enabled:
            fr.flight_begin(
                packet, "ping", node=self.node.name, stage="host.send",
                dst=str(self.dst), ident=self.ident, seq=seq,
            )
        self.node.ip_output(packet, sliver=self.sliver)

    def _on_reply(self, packet: Packet) -> None:
        seq = packet.icmp.seq
        sent_at = self._outstanding.pop(seq, None)
        if sent_at is None:
            return
        rtt = self.sim.now - sent_at
        if rtt > TIMEOUT:
            return
        self.received += 1
        self.samples.append((sent_at, seq, rtt))
        fr = self.sim.flight
        if fr.enabled:
            fr.flight_end(packet)
        self.rtt_hist.observe(rtt)
        self.sim.trace.log(
            "ping", src=self.node.name, dst=str(self.dst), seq=seq, rtt=rtt
        )

    # ------------------------------------------------------------------
    def stats(self) -> PingStats:
        rtts = [rtt for _t, _s, rtt in self.samples]
        if not rtts:
            return PingStats(self.transmitted, 0, 0.0, 0.0, 0.0, 0.0)
        avg = sum(rtts) / len(rtts)
        mdev = math.sqrt(sum((r - avg) ** 2 for r in rtts) / len(rtts))
        return PingStats(
            self.transmitted, self.received, min(rtts), avg, max(rtts), mdev
        )

    def rtt_series(self) -> List[Tuple[float, float]]:
        """(send_time, rtt) points — the Figure 8 series."""
        return [(t, rtt) for t, _seq, rtt in self.samples]
