"""Traffic generators: constant-bit-rate sources and flash crowds.

Section 1's list of controlled events is "link failures and flash
crowds"; Section 2 adds "changes in traffic volume". These generators
are the machinery for the traffic side: a steady :class:`CBRSource`,
and :class:`FlashCrowd`, which turns a set of them loose on one target
for a bounded window — the classic overload event an experiment wants
to inject on cue.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.net.addr import IPv4Address, ip
from repro.net.packet import OpaquePayload
from repro.phys.node import PhysicalNode
from repro.phys.process import Process
from repro.phys.vserver import Sliver

SEND_COST = 5.0e-6
PAYLOAD = 1430  # bytes per datagram: iperf's UDP payload in the paper


class CBRSource:
    """Constant bit rate: one datagram every PAYLOAD*8/rate seconds,
    from a UDP sender on a node (optionally in a sliver)."""

    def __init__(
        self,
        node: PhysicalNode,
        dst: Union[str, IPv4Address],
        dport: int,
        rate_bps: float,
        sliver: Optional[Sliver] = None,
        name: str = "source",
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps!r}")
        self.sim = node.sim
        self.dst = ip(dst)
        self.dport = dport
        self.interval = PAYLOAD * 8 / rate_bps
        if sliver is not None:
            self.process = sliver.create_process(name)
            bind = sliver.tap.address if sliver.tap is not None else None
        else:
            self.process = Process(node, name)
            bind = None
        self.sock = node.udp_socket(self.process, local_addr=bind)
        self.sent = 0
        self.running = False

    def start(self):
        if not self.running:
            self.running = True
            self.sim.at(0.0, self._emit)
        return self

    def stop(self) -> None:
        self.running = False

    def _emit(self) -> None:
        if not self.running:
            return
        self.sent += 1
        seq = self.sent
        self.process.exec_after(
            SEND_COST,
            self.sock.sendto,
            OpaquePayload(PAYLOAD, data={"seq": seq, "sent_at": self.sim.now}),
            self.dst,
            self.dport,
        )
        self.sim.at(self.interval, self._emit)


class FlashCrowd:
    """Many senders converging on one target for a bounded window.

    The controlled "flash crowd" event of Section 1: ``n_sources``
    CBR senders spread over ``nodes`` all aim at (dst, dport) between
    ``start`` and ``start + duration``.
    """

    def __init__(
        self,
        nodes: List[PhysicalNode],
        dst: Union[str, IPv4Address],
        dport: int,
        n_sources: int = 10,
        rate_bps: float = 5e6,
        slivers: Optional[List[Sliver]] = None,
    ):
        if not nodes:
            raise ValueError("flash crowd needs at least one source node")
        self.sources: List[CBRSource] = []
        for index in range(n_sources):
            node = nodes[index % len(nodes)]
            sliver = slivers[index % len(slivers)] if slivers else None
            self.sources.append(
                CBRSource(node, dst, dport, rate_bps, sliver=sliver,
                          name=f"crowd{index}")
            )
        self.sim = nodes[0].sim

    def schedule(self, start: float, duration: float) -> "FlashCrowd":
        for source in self.sources:
            self.sim.schedule(start, source.start)
            self.sim.schedule(start + duration, source.stop)
        return self

    @property
    def sent(self) -> int:
        return sum(source.sent for source in self.sources)
