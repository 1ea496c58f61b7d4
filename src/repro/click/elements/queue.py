"""The Shaper element.

Section 6.2 plans "support for setting link bandwidths, either via
configuration of traffic shapers in Click, or in the kernel itself" —
this element is the Click half of that support. A :class:`Shaper`
placed in front of a tunnel makes a virtual link behave like a slower
physical circuit (token-bucket paced, drop-tail queue), which the
virtual-network layer uses to give virtual links their own capacities.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.click.element import Element
from repro.net.packet import Packet

#: Every shaper's token-bucket depth and drop-tail queue, in bytes.
BURST_BYTES = 3000
QUEUE_BYTES = 128 * 1024


class Shaper(Element):
    """Token-bucket pacing to ``rate`` bits/s with a drop-tail queue.

    Packets that arrive while the shaper is conforming pass straight
    through; bursts beyond the bucket are queued and released on
    schedule; overflow is dropped.
    """

    def __init__(self, rate: float):
        super().__init__(n_outputs=1)
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        # Hot-path precomputes: _rate_bytes is rederived by _apply_rate
        # whenever the fluid load moves; the rate and burst are fixed.
        # Dividing by 8 is exact in binary floats, so rate/8.0 is the
        # same value the inline expression produced — pacing stays
        # float-identical. The token requirement depends only on wire
        # length, so it is memoized per length.
        self._need_cache: Dict[int, float] = {}
        # Fluid background load riding this shaped link (repro.traffic);
        # 0.0 keeps _apply_rate on the exact original rate/8.0 value.
        self._fluid_bps = 0.0
        self._rate = rate
        self._apply_rate()
        self._burst_f = float(BURST_BYTES)
        self.tokens = self._burst_f
        self._stamp = 0.0
        self._queue: Deque[Packet] = deque()
        self._queued_bytes = 0
        self._pending = False
        self.drops = 0
        self.offered = 0
        self.sent = 0

    def _apply_rate(self) -> None:
        # Dividing by 8 is exact in binary floats, so with no fluid
        # load this reproduces the seed rate/8.0 value bit-for-bit.
        fluid = self._fluid_bps
        if fluid:
            residual = self._rate - fluid
            floor = self._rate * 0.01
            if residual < floor:
                residual = floor
            self._rate_bytes = residual / 8.0
        else:
            self._rate_bytes = self._rate / 8.0

    def set_fluid_bps(self, bps: float) -> None:
        """Charge the token bucket with fluid background load.

        The configured ``rate`` is unchanged; only the effective token
        refill drops to the residual, so foreground packets pace as if
        competing with the fluid flows for the same shaped capacity.
        """
        if bps == self._fluid_bps:
            return
        if self.router is not None:
            # Settle tokens accrued at the old effective rate first.
            self._refill()
        self._fluid_bps = bps
        self._apply_rate()
        if self._queue and not self._pending:
            self._schedule()

    def _refill(self) -> None:
        now = self.router.sim.now
        self.tokens = min(
            self._burst_f,
            self.tokens + self._rate_bytes * (now - self._stamp),
        )
        self._stamp = now

    def _need(self, packet: Packet) -> float:
        """Tokens required before ``packet`` may leave.

        A packet larger than the bucket can never accumulate its full
        size in tokens; it departs once the bucket is full and debits
        the bucket below zero (long-run rate stays correct).
        """
        wire_len = packet.wire_len
        need = self._need_cache.get(wire_len)
        if need is None:
            need = min(float(wire_len), self._burst_f)
            self._need_cache[wire_len] = need
        return need

    def push(self, port: int, packet: Packet) -> None:
        self.offered += 1
        self._refill()
        size = packet.wire_len
        if not self._queue and self.tokens >= self._need(packet):
            self.tokens -= size
            self.sent += 1
            self.outputs[0].push(packet)
            return
        if self._queued_bytes + size > QUEUE_BYTES:
            self.drops += 1
            self.router.sim.trace.drop(packet, "shaper_overflow", self.router.name)
            return
        self._queue.append(packet)
        self._queued_bytes += size
        fr = self.router.sim.flight
        if fr.enabled and packet.span is not None:
            # Pacing residency: closed when _release pushes the packet on.
            fr.stage(packet, "click.shaper", node=self.router.node.name)
        self._schedule()

    def _schedule(self) -> None:
        if self._pending or not self._queue:
            return
        self._refill()
        need = self._need(self._queue[0]) - self.tokens
        delay = max(need, 0.0) / self._rate_bytes
        self._pending = True
        self.router.sim.at(delay, self._release)

    def _release(self) -> None:
        self._pending = False
        self._refill()
        queue = self._queue
        if queue:
            need = self._need
            out = self.outputs[0]
            while queue and self.tokens >= need(queue[0]):
                packet = queue.popleft()
                wire_len = packet.wire_len
                self._queued_bytes -= wire_len
                self.tokens -= wire_len
                self.sent += 1
                out.push(packet)
        self._schedule()
