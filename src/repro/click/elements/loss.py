"""Controlled loss injection.

Section 5.2: "we 'fail' the link by dropping packets within Click on
the virtual link (UDP tunnel) connecting two Abilene nodes." This
element is that mechanism — insert it in front of a tunnel, and calling
:meth:`fail` makes the virtual link silently black-hole traffic, which
is what lets OSPF's dead-interval machinery detect the failure.
"""

from __future__ import annotations

from repro.click.element import Element
from repro.net.packet import Packet


class LossElement(Element):
    """Drops packets: all of them when failed, else with probability p."""

    def __init__(self):
        super().__init__(n_outputs=1)
        self.drop_prob = 0.0
        self.failed = False
        self.dropped = 0
        self.passed = 0
        # Bound rng.random, cached on first use so the stream is
        # created at the same point as before (same draw sequence).
        self._random = None

    def fail(self) -> None:
        """Black-hole everything (a virtual link failure)."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def set_drop_prob(self, drop_prob: float) -> None:
        """Change the loss rate (a controlled loss episode)."""
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {drop_prob!r}")
        self.drop_prob = drop_prob

    def initialize(self) -> None:
        metrics = self.router.sim.metrics
        labels = dict(node=self.router.node.name, element=self.name)
        metrics.counter("click.loss.dropped_pkts", fn=lambda: self.dropped, **labels)
        metrics.counter("click.loss.delivered_pkts", fn=lambda: self.passed, **labels)

    def push(self, port: int, packet: Packet) -> None:
        if self.failed:
            reason = "failed"
        elif self.drop_prob > 0.0:
            random = self._random
            if random is None:
                random = self._random = self.router.sim.rng("click.loss").random
            reason = "loss_prob" if random() < self.drop_prob else None
        else:
            reason = None
        if reason is not None:
            self.dropped += 1
            self.router.sim.trace.drop(packet, reason, self.router.name)
            return
        self.passed += 1
        fr = self.router.sim.flight
        if fr.enabled and packet.span is not None:
            fr.stage(packet, "click.loss", node=self.router.node.name)
        self.outputs[0].push(packet)
