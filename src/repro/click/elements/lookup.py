"""FIB lookup elements.

The forwarding table "maps IP prefixes (both within and outside of
IIAS's private address space) to next hops within IIAS. The forwarding
table is initially empty and is populated by XORP" (Section 4.2.1).

:class:`RadixIPLookup` is the radix trie Click uses for big tables.

On a hit, the element annotates the packet with the chosen next hop
(``meta['gw']``) — Click's destination annotation — and pushes it to
the route's output port; a miss is dropped and traced as ``no_route``.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.click.element import Element
from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.net.packet import Packet
from repro.net.trie import RadixTrie


class RadixIPLookup(Element):
    """Longest-prefix-match FIB backed by a radix trie."""

    def __init__(self):
        # Forward, local delivery, egress: ``FIB_FORWARD`` .. ``FIB_EGRESS``.
        super().__init__(n_outputs=3)
        self._trie = RadixTrie()

    # -- table mutation (called by the FEA) ----------------------------
    def add_route(
        self,
        pfx: Union[str, Prefix],
        gw: Optional[Union[str, IPv4Address]],
        port: int = 0,
    ) -> None:
        self._trie.insert(prefix(pfx), (ip(gw) if gw is not None else None, port))

    def remove_route(self, pfx: Union[str, Prefix]) -> None:
        self._trie.remove(prefix(pfx))

    # -- data path ------------------------------------------------------
    def push(self, port: int, packet: Packet) -> None:
        dst = packet.ip.dst
        found = self._trie.lookup_entry(dst)
        if found is None:
            self.router.sim.trace.drop(packet, "no_route", self.router.name)
            return
        gw, out_port = found[1]
        packet.meta["gw"] = gw if gw is not None else dst
        self.outputs[out_port].push(packet)
