"""FIB lookup elements.

The forwarding table "maps IP prefixes (both within and outside of
IIAS's private address space) to next hops within IIAS. The forwarding
table is initially empty and is populated by XORP" (Section 4.2.1).

Two implementations share one API: :class:`RadixIPLookup` (the radix
trie Click uses for big tables) and :class:`LinearIPLookup` (Click's
simple list-scan element); ``tests/click/test_elements.py`` holds the
two to the same answers.

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


class _LookupBase(Element):
    """Shared route-table API for the lookup elements."""

    def __init__(self, n_outputs: int = 1, no_route_port: Optional[int] = None):
        super().__init__(n_outputs=n_outputs)
        self.no_route_port = no_route_port
        self.lookups = 0
        self.misses = 0

    # -- table mutation (called by the FEA) ----------------------------
    def add_route(
        self,
        pfx: Union[str, Prefix],
        gw: Optional[Union[str, IPv4Address]],
        port: int = 0,
    ) -> None:
        raise NotImplementedError

    def remove_route(self, pfx: Union[str, Prefix]) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def routes(self) -> List[Tuple[Prefix, Optional[IPv4Address], int]]:
        raise NotImplementedError

    def _lookup(self, addr: IPv4Address):
        raise NotImplementedError

    # -- data path ------------------------------------------------------
    def push(self, port: int, packet: Packet) -> None:
        self.lookups += 1
        dst = packet.ip.dst
        found = self._lookup(dst)
        if found is None:
            self.misses += 1
            if self.no_route_port is not None:
                self.outputs[self.no_route_port].push(packet)
            else:
                self.router.trace_drop(packet, "no_route")
            return
        gw, out_port = found
        packet.meta["gw"] = gw if gw is not None else dst
        self.outputs[out_port].push(packet)


class RadixIPLookup(_LookupBase):
    """Longest-prefix-match FIB backed by a radix trie."""

    def __init__(self, n_outputs: int = 1, no_route_port: Optional[int] = None):
        super().__init__(n_outputs=n_outputs, no_route_port=no_route_port)
        self._trie = RadixTrie()

    def add_route(self, pfx, gw, port: int = 0) -> None:
        self._trie.insert(prefix(pfx), (ip(gw) if gw is not None else None, port))

    def remove_route(self, pfx) -> None:
        self._trie.remove(prefix(pfx))

    def clear(self) -> None:
        self._trie.clear()

    def routes(self):
        return [(p, gw, port) for p, (gw, port) in self._trie.items()]

    def __len__(self) -> int:
        return len(self._trie)

    def _lookup(self, addr):
        found = self._trie.lookup_entry(addr)
        return found[1] if found is not None else None


class LinearIPLookup(_LookupBase):
    """Click's LinearIPLookup: a list scanned per packet.

    O(n) per lookup; fine for a handful of routes, pathological for
    big tables.
    """

    def __init__(self, n_outputs: int = 1, no_route_port: Optional[int] = None):
        super().__init__(n_outputs=n_outputs, no_route_port=no_route_port)
        self._routes: List[Tuple[Prefix, Optional[IPv4Address], int]] = []

    def add_route(self, pfx, gw, port: int = 0) -> None:
        pfx = prefix(pfx)
        gw = ip(gw) if gw is not None else None
        for index, (existing, _gw, _port) in enumerate(self._routes):
            if existing == pfx:
                self._routes[index] = (pfx, gw, port)
                return
        self._routes.append((pfx, gw, port))

    def remove_route(self, pfx) -> None:
        pfx = prefix(pfx)
        for index, (existing, _gw, _port) in enumerate(self._routes):
            if existing == pfx:
                del self._routes[index]
                return
        raise KeyError(str(pfx))

    def clear(self) -> None:
        self._routes.clear()

    def routes(self):
        return list(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def _lookup(self, addr):
        best = None
        best_plen = -1
        for pfx, gw, port in self._routes:
            if addr in pfx and pfx.plen > best_plen:
                best = (gw, port)
                best_plen = pfx.plen
        return best
