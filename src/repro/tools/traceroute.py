"""traceroute over the overlay (or the physical network).

Sends ICMP echo probes with increasing TTL; intermediate *virtual*
routers answer with time-exceeded errors generated inside Click
(ICMPError element), so the tool reveals the virtual topology hop by
hop — the "looks and feels like a real network" property of Section 3.
"""

from __future__ import annotations

from typing import List, Optional, Union

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

#: First ICMP ident handed out per simulator, less one.
_IDENT_BASE = 20000
PROBE_COST = 5.0e-6


class Traceroute:
    """Walk the path to ``dst``, one TTL at a time."""

    def __init__(
        self,
        node: PhysicalNode,
        dst: Union[str, IPv4Address],
        sliver: Optional[Sliver] = None,
        max_hops: int = 30,
        probe_timeout: float = 2.0,
    ):
        self.node = node
        self.sim = node.sim
        self.dst = ip(dst)
        self.sliver = sliver
        self.max_hops = max_hops
        self.probe_timeout = probe_timeout
        # Per simulator, like Ping's: same-seed worlds built back to
        # back in one process send the same probes.
        self.ident = getattr(self.sim, "_traceroute_next_ident", _IDENT_BASE) + 1
        self.sim._traceroute_next_ident = self.ident
        self.process = (
            sliver.create_process("traceroute")
            if sliver is not None
            else Process(node, "traceroute")
        )
        self.hops: List[Optional[str]] = []
        self.rtts: List[Optional[float]] = []
        self.done = False
        self._current_ttl = 0
        self._sent_at = 0.0
        self._timeout_event = None
        node.icmp_errors_to(self._on_error)
        node.icmp_register(
            self.ident,
            self._on_reply,
            sliver_name=sliver.slice.name if sliver is not None else None,
        )

    def start(self) -> "Traceroute":
        self._next_probe()
        return self

    def _next_probe(self) -> None:
        if self.done:
            return
        self._current_ttl += 1
        if self._current_ttl > self.max_hops:
            self._finish()
            return
        self._sent_at = self.sim.now
        self.process.exec_after(PROBE_COST, self._emit, self._current_ttl)
        self._timeout_event = self.sim.at(self.probe_timeout, self._probe_timeout)

    def _emit(self, ttl: int) -> None:
        src = (
            self.sliver.tap.address
            if self.sliver is not None and self.sliver.tap is not None
            else 0
        )
        probe = Packet(
            IPv4Header(src, self.dst, PROTO_ICMP, ttl=ttl),
            ICMPHeader(ICMP_ECHO_REQUEST, ident=self.ident, seq=ttl),
            payload=OpaquePayload(32, tag="traceroute"),
        )
        self.node.ip_output(probe, sliver=self.sliver)

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self.sim.cancel(self._timeout_event)
            self._timeout_event = None

    def _on_error(self, packet: Packet) -> None:
        if self.done:
            return
        offending = packet.payload.data
        if offending is None or offending.icmp is None:
            return
        if offending.icmp.ident != self.ident:
            return
        self._cancel_timeout()
        self.hops.append(str(packet.ip.src))
        self.rtts.append(self.sim.now - self._sent_at)
        self._next_probe()

    def _on_reply(self, packet: Packet) -> None:
        if self.done:
            return
        self._cancel_timeout()
        self.hops.append(str(packet.ip.src))
        self.rtts.append(self.sim.now - self._sent_at)
        self._finish()

    def _probe_timeout(self) -> None:
        self._timeout_event = None
        self.hops.append(None)  # the classic "* * *"
        self.rtts.append(None)
        self._next_probe()

    def _finish(self) -> None:
        self.done = True
        self.node.icmp_unregister(
            self.ident,
            sliver_name=self.sliver.slice.name if self.sliver is not None else None,
        )

    def path(self) -> List[Optional[str]]:
        return list(self.hops)
