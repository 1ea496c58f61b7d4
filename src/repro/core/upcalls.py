"""Upcalls: exposing physical topology changes to experiments.

Section 3.1: "A physical component and its associated virtual
components should share fate. ... VINI should guarantee that the
virtual links that use that physical link should see that failure."
Section 6.1 describes the mechanism: "extending our software to perform
'upcalls' to notify the affected slices."

The PL-VINI prototype itself *lacks* this (failures are masked by IP
rerouting); the dispatcher here implements the ongoing-work design:
each virtual link records the physical links it rides on, and when one
fails, both endpoint routing daemons are notified immediately — which
the ``ospf_timers`` scenario of ``benchmarks/paper.py`` contrasts with
plain dead-interval detection.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.virtual_network import VirtualLink, VirtualNetwork
from repro.phys.link import Link


class UpcallDispatcher:
    """Wires physical link state changes to virtual-node upcalls."""

    def __init__(self, network: VirtualNetwork):
        self.network = network
        self._observed: Set[int] = set()
        self.upcalls_delivered = 0

    def enable(self) -> None:
        """Start observing every physical link any virtual link uses."""
        for vlink in self.network.links:
            for plink in vlink.physical_links:
                if id(plink) in self._observed:
                    continue
                self._observed.add(id(plink))
                plink.observe(self._on_physical_change)

    # ------------------------------------------------------------------
    def _affected(self, plink: Link) -> List[VirtualLink]:
        return [
            vlink
            for vlink in self.network.links
            if any(p is plink for p in vlink.physical_links)
        ]

    def _on_physical_change(self, plink: Link, up: bool) -> None:
        for vlink in self._affected(plink):
            self.network.sim.trace.log(
                "upcall", vlink=vlink.name, plink=plink.name, up=up
            )
            self.upcalls_delivered += 1
            for vnode, ifname in (
                (vlink.a, vlink.ifname_a),
                (vlink.b, vlink.ifname_b),
            ):
                ospf = vnode.xorp.ospf
                if ospf is None:
                    continue
                if up:
                    ospf.interface_up(ifname)
                else:
                    ospf.interface_down(ifname)
