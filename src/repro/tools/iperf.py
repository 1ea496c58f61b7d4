"""iperf 1.7.0 equivalents: TCP throughput and UDP CBR jitter/loss.

The paper: "We measure capacity using iperf's TCP throughput test to
send 20 simultaneous streams from a client to a server ... We measure
behavior with iperf's constant-bit-rate UDP test, observing the jitter
and loss rate of packet streams (with 1430-byte UDP payloads) of
varying rates" (Section 5.1). Both tests are reproduced here, including
iperf's RFC 1889 interarrival-jitter estimator and its default 16 KB
TCP window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.net.addr import IPv4Address, ip
from repro.net.tcp import DEFAULT_RCVBUF, TCPStack
from repro.phys.node import PhysicalNode
from repro.phys.process import Process
from repro.phys.vserver import Sliver

SEND_COST = 5.0e-6
UDP_PAYLOAD = 1430  # the paper's UDP payload size
TCP_PORT = 5001  # iperf's default port
UDP_PORT = 5002  # beside it, so a TCP and a UDP test can share a node


def _make_process(node: PhysicalNode, sliver: Optional[Sliver], name: str) -> Process:
    if sliver is not None:
        return sliver.create_process(name)
    return Process(node, name)


# ----------------------------------------------------------------------
# TCP throughput test
# ----------------------------------------------------------------------
@dataclass
class TCPResult:
    """Result of one TCP throughput test."""

    bytes_received: int
    duration: float
    streams: int

    @property
    def throughput_bps(self) -> float:
        return self.bytes_received * 8 / self.duration if self.duration > 0 else 0.0

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps / 1e6

    def __str__(self) -> str:
        return (
            f"{self.bytes_received / 1e6:.1f} MB in {self.duration:.1f} s = "
            f"{self.throughput_mbps:.1f} Mb/s over {self.streams} streams"
        )


class IperfTCPServer:
    """iperf -s: accepts streams, counts delivered bytes per interval."""

    def __init__(
        self,
        node: PhysicalNode,
        sliver: Optional[Sliver] = None,
        window: int = DEFAULT_RCVBUF,
    ):
        self.sim = node.sim
        self.process = _make_process(node, sliver, "iperf-server")
        self.bytes_received = 0
        self.arrivals: List[Tuple[float, int]] = []
        self.sim.metrics.counter(
            "iperf.tcp.bytes_received",
            fn=lambda: self.bytes_received,
            node=node.name,
            port=TCP_PORT,
        )
        stack = TCPStack.of(node)
        self.listener = stack.listen(
            self.process,
            TCP_PORT,
            local_addr=sliver.tap.address if sliver is not None and sliver.tap else None,
            on_accept=self._accept,
            rcvbuf=window,
        )

    def _accept(self, conn) -> None:
        conn.on_data = self._on_data

    def _on_data(self, nbytes: int) -> None:
        self.bytes_received += nbytes
        self.arrivals.append((self.sim.now, nbytes))

    def close(self) -> None:
        self.listener.close()


class IperfTCPClient:
    """iperf -c -P <streams> -t <duration> [-w <window>]."""

    def __init__(
        self,
        node: PhysicalNode,
        server_addr: Union[str, IPv4Address],
        sliver: Optional[Sliver] = None,
        streams: int = 1,
        duration: float = 10.0,
        window: int = DEFAULT_RCVBUF,
        server: Optional[IperfTCPServer] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.server_addr = ip(server_addr)
        self.streams = streams
        self.duration = duration
        self.window = window
        self.server = server
        self.process = _make_process(node, sliver, "iperf-client")
        self.connections = []
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._server_bytes_at_start = 0

    def start(self) -> "IperfTCPClient":
        self.started_at = self.sim.now
        if self.server is not None:
            self._server_bytes_at_start = self.server.bytes_received
        stack = TCPStack.of(self.node)
        for _index in range(self.streams):
            conn = stack.connect(
                self.process,
                self.server_addr,
                TCP_PORT,
                rcvbuf=self.window,
            )
            conn.on_connect = lambda conn=conn: self._pump(conn)
            conn.on_writable = lambda conn=conn: self._pump(conn)
            self.connections.append(conn)
        self.sim.at(self.duration, self._finish)
        return self

    def _pump(self, conn) -> None:
        if self.finished_at is not None:
            return
        # Keep the socket buffer topped up, like iperf's write loop.
        room = conn.snd_buf_limit - conn.snd_buf
        if room > 0:
            conn.send(room)

    def _finish(self) -> None:
        self.finished_at = self.sim.now
        for conn in self.connections:
            conn.abort()

    def result(self) -> TCPResult:
        """Throughput measured at the server over the test duration."""
        if self.server is None:
            raise RuntimeError("attach a server= to read a result")
        end = self.finished_at if self.finished_at is not None else self.sim.now
        received = self.server.bytes_received - self._server_bytes_at_start
        return TCPResult(received, end - (self.started_at or 0.0), self.streams)


# ----------------------------------------------------------------------
# UDP CBR test
# ----------------------------------------------------------------------
@dataclass
class UDPResult:
    """Result of one UDP CBR test (iperf server report)."""

    sent: int
    received: int
    jitter: float  # RFC 1889 estimator, seconds
    jitter_samples: List[float] = field(default_factory=list)

    @property
    def lost(self) -> int:
        return max(0, self.sent - self.received)

    @property
    def loss_pct(self) -> float:
        return 100.0 * self.lost / self.sent if self.sent else 0.0

    def __str__(self) -> str:
        return (
            f"{self.received}/{self.sent} datagrams, "
            f"{self.loss_pct:.2f}% loss, jitter {self.jitter * 1e3:.3f} ms"
        )


class IperfUDPServer:
    """iperf -s -u: sequence tracking, loss counting, RFC 1889 jitter."""

    def __init__(
        self,
        node: PhysicalNode,
        sliver: Optional[Sliver] = None,
        rcvbuf: int = 256 * 1024,
    ):
        self.sim = node.sim
        self.process = _make_process(node, sliver, "iperf-udp-server")
        bind = sliver.tap.address if sliver is not None and sliver.tap else None
        self.sock = node.udp_socket(
            self.process, port=UDP_PORT, local_addr=bind, rcvbuf=rcvbuf
        )
        self.sock.on_receive = self._on_datagram
        self.received = 0
        self.max_seq = 0
        self.jitter = 0.0
        self.jitter_samples: List[float] = []
        self._last_transit: Optional[float] = None
        metrics = self.sim.metrics
        labels = dict(node=node.name, port=UDP_PORT)
        metrics.counter("iperf.udp.received", fn=lambda: self.received, **labels)
        metrics.gauge("iperf.udp.jitter", fn=lambda: self.jitter, **labels)

    def _on_datagram(self, packet, src, sport) -> None:
        self.received += 1
        data = packet.payload.data or {}
        self.max_seq = max(self.max_seq, data.get("seq", 0))
        transit = self.sim.now - data.get("sent_at", self.sim.now)
        if self._last_transit is not None:
            delta = abs(transit - self._last_transit)
            # iperf's RFC 1889 smoothed jitter.
            self.jitter += (delta - self.jitter) / 16.0
            self.jitter_samples.append(delta)
        self._last_transit = transit

    def close(self) -> None:
        self.sock.close()


class IperfUDPClient:
    """iperf -c -u -b <rate>: constant-bit-rate datagram stream."""

    def __init__(
        self,
        node: PhysicalNode,
        server_addr: Union[str, IPv4Address],
        rate_bps: float,
        sliver: Optional[Sliver] = None,
        duration: float = 10.0,
        server: Optional[IperfUDPServer] = None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps!r}")
        self.sim = node.sim
        self.server_addr = ip(server_addr)
        self.duration = duration
        self.server = server
        self.process = _make_process(node, sliver, "iperf-udp-client")
        bind = sliver.tap.address if sliver is not None and sliver.tap else None
        self.sock = node.udp_socket(self.process, local_addr=bind)
        self.sent = 0
        self.interval = UDP_PAYLOAD * 8 / rate_bps
        self._deadline: Optional[float] = None
        self.sim.metrics.counter(
            "iperf.udp.sent", fn=lambda: self.sent, node=node.name, port=UDP_PORT
        )

    def start(self) -> "IperfUDPClient":
        self._deadline = self.sim.now + self.duration
        self._tick()
        return self

    def _tick(self) -> None:
        if self.sim.now >= (self._deadline or 0.0):
            return
        self.sent += 1
        seq = self.sent
        self.process.exec_after(SEND_COST, self._emit, seq)
        self.sim.at(self.interval, self._tick)

    def _emit(self, seq: int) -> None:
        from repro.net.packet import OpaquePayload

        self.sock.sendto(
            OpaquePayload(
                UDP_PAYLOAD, data={"seq": seq, "sent_at": self.sim.now}, tag="iperf"
            ),
            self.server_addr,
            UDP_PORT,
        )

    def result(self) -> UDPResult:
        if self.server is None:
            raise RuntimeError("attach a server= to read a result")
        return UDPResult(
            self.sent,
            self.server.received,
            self.server.jitter,
            self.server.jitter_samples,
        )
