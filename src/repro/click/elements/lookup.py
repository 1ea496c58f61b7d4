"""FIB lookup elements.

The forwarding table "maps IP prefixes (both within and outside of
IIAS's private address space) to next hops within IIAS. The forwarding
table is initially empty and is populated by XORP" (Section 4.2.1).

:class:`RadixIPLookup` is the radix trie Click uses for big tables.

On a hit, the element annotates the packet with the chosen next hop
(``meta['gw']``) — Click's destination annotation — and pushes it to
the route's output port.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.click.element import Element
from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.net.packet import Packet
from repro.net.trie import RadixTrie


class RadixIPLookup(Element):
    """Longest-prefix-match FIB backed by a radix trie."""

    def __init__(self, n_outputs: int = 1, no_route_port: Optional[int] = None):
        super().__init__(n_outputs=n_outputs)
        self.no_route_port = no_route_port
        self.lookups = 0
        self.misses = 0
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

    def clear(self) -> None:
        self._trie.clear()

    def routes(self) -> List[Tuple[Prefix, Optional[IPv4Address], int]]:
        return [(p, gw, port) for p, (gw, port) in self._trie.items()]

    def __len__(self) -> int:
        return len(self._trie)

    # -- data path ------------------------------------------------------
    def push(self, port: int, packet: Packet) -> None:
        self.lookups += 1
        dst = packet.ip.dst
        found = self._trie.lookup_entry(dst)
        if found is None:
            self.misses += 1
            if self.no_route_port is not None:
                self.outputs[self.no_route_port].push(packet)
            else:
                self.router.trace_drop(packet, "no_route")
            return
        gw, out_port = found[1]
        packet.meta["gw"] = gw if gw is not None else dst
        self.outputs[out_port].push(packet)
