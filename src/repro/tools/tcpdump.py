"""tcpdump: packet capture at a node.

"The figure plots the arrival time of data packets at the receiver, as
reported by tcpdump" (Section 5.2, Fig. 9). This capture hooks the
node's local-delivery and output paths and records timestamped summary
rows; :meth:`tcp_arrivals` yields exactly the (arrival time, byte
position) series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.net.packet import Packet, PROTO_TCP, PROTO_UDP
from repro.phys.node import PhysicalNode


@dataclass
class CaptureRecord:
    """One captured packet summary."""

    time: float
    point: str  # "in" or "out"
    src: str
    dst: str
    proto: int
    length: int
    seq: Optional[int] = None
    ack: Optional[int] = None
    flags: str = ""
    payload_len: int = 0


class Tcpdump:
    """Capture packets at a node, with an optional filter predicate."""

    def __init__(
        self,
        node: PhysicalNode,
        filter: Optional[Callable[[Packet, str], bool]] = None,
        direction: Optional[str] = None,
    ):
        self.node = node
        self.filter = filter
        self.direction = direction
        self.records: List[CaptureRecord] = []
        self._attached = False

    def start(self) -> "Tcpdump":
        if not self._attached:
            self._attached = True
            self.node.add_capture(self._capture)
        return self

    def stop(self) -> None:
        if self._attached:
            self._attached = False
            self.node.remove_capture(self._capture)

    def _capture(self, packet: Packet, point: str) -> None:
        if self.direction is not None and point != self.direction:
            return
        if self.filter is not None and not self.filter(packet, point):
            return
        header = packet.ip
        if header is None:
            return
        record = CaptureRecord(
            time=self.node.sim.now,
            point=point,
            src=str(header.src),
            dst=str(header.dst),
            proto=header.proto,
            length=packet.wire_len,
            payload_len=packet.payload.size,
        )
        tcp = packet.tcp
        if tcp is not None:
            record.seq = tcp.seq
            record.ack = tcp.ack
            record.flags = tcp.flag_string()
        self.records.append(record)

    # ------------------------------------------------------------------
    def tcp_arrivals(self, dport: Optional[int] = None) -> List[tuple]:
        """(time, seq, payload_len) rows of received TCP data segments —
        the Fig. 9(b) byte-position series."""
        rows = []
        for record in self.records:
            if record.proto != PROTO_TCP or record.point != "in":
                continue
            if record.payload_len <= 0:
                continue
            rows.append((record.time, record.seq, record.payload_len))
        return rows

    def __len__(self) -> int:
        return len(self.records)


def tcp_filter(dport: int):
    """Convenience filter: TCP segments to a destination port."""

    def predicate(packet: Packet, _point: str) -> bool:
        tcp = packet.tcp
        return tcp is not None and tcp.dport == dport

    return predicate
