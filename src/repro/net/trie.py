"""Longest-prefix-match radix trie.

This is the data structure behind the Click ``RadixIPLookup`` element
and the RIB. A path-compressed binary trie keyed on IPv4 prefixes:
O(32) lookups independent of table size, unlike the per-packet list
scan of Click's ``LinearIPLookup``.

Lookups are the per-packet path, so they build nothing: a node that
holds a route keeps its ``(Prefix, value)`` entry, made at ``insert``
and dropped at ``remove``, and ``lookup_entry`` returns that tuple.
Callers must treat the shared ``Prefix`` in it as read-only.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple, Union

from repro.net.addr import MASKS, IPv4Address, Prefix, ip, prefix


class _Node:
    __slots__ = ("bits", "plen", "mask", "entry", "children")

    def __init__(self, bits: int, plen: int):
        # ``bits`` are the top ``plen`` bits of the covered prefix,
        # stored left-aligned in a 32-bit word.
        self.bits = bits
        self.plen = plen
        self.mask = MASKS[plen]
        # (Prefix, value) while a route sits here; None on a node that
        # only branches (made by an edge split, or left by ``remove``).
        self.entry: Optional[Tuple[Prefix, Any]] = None
        self.children: List[Optional[_Node]] = [None, None]


def _bit(value: int, index: int) -> int:
    """Bit ``index`` counting from the most significant (0..31)."""
    return (value >> (31 - index)) & 1


def _common_plen(a: int, b: int, limit: int) -> int:
    """Length of the common left-aligned bit prefix of a and b, <= limit."""
    diff = a ^ b
    if diff == 0:
        return limit
    leading = 31 - diff.bit_length() + 1
    return min(leading, limit)


class RadixTrie:
    """Path-compressed binary trie mapping :class:`Prefix` to values."""

    def __init__(self):
        self._root = _Node(0, 0)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return True  # an empty table is still a table

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, pfx: Union[str, Prefix], value: Any) -> None:
        """Insert or replace the entry for ``pfx``."""
        pfx = prefix(pfx)
        node = self._node_at(pfx.network, pfx.plen)
        if node.entry is None:
            self._count += 1
        node.entry = (pfx, value)

    def _node_at(self, bits: int, plen: int) -> _Node:
        """The node for exactly ``bits/plen``, created when absent."""
        node = self._root
        while node.plen != plen or node.bits != bits:
            branch = _bit(bits, node.plen)
            child = node.children[branch]
            if child is None:
                child = node.children[branch] = _Node(bits, plen)
            else:
                shared = _common_plen(bits, child.bits, min(plen, child.plen))
                if shared < child.plen:
                    # Split the edge at ``shared`` bits.
                    mid = _Node(child.bits & MASKS[shared], shared)
                    node.children[branch] = mid
                    mid.children[_bit(child.bits, shared)] = child
                    child = mid
            node = child
        return node

    def remove(self, pfx: Union[str, Prefix]) -> Any:
        """Remove and return the value for ``pfx``; KeyError if absent.

        Structural nodes are left in place (they are cheap and removal
        churn is rare relative to lookups).
        """
        pfx = prefix(pfx)
        node = self._find_exact(pfx)
        if node is None:
            raise KeyError(str(pfx))
        value = node.entry[1]
        node.entry = None
        self._count -= 1
        return value

    def clear(self) -> None:
        self._root = _Node(0, 0)
        self._count = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _find_exact(self, pfx: Prefix) -> Optional[_Node]:
        """The node holding a route for exactly ``pfx``, or None."""
        bits, plen = pfx.network, pfx.plen
        node = self._root
        while node is not None and node.plen < plen and (bits & node.mask) == node.bits:
            node = node.children[_bit(bits, node.plen)]
        if node is None or node.plen != plen or node.bits != bits or node.entry is None:
            return None
        return node

    def exact(self, pfx: Union[str, Prefix]) -> Any:
        """Value stored at exactly ``pfx``; KeyError if absent."""
        node = self._find_exact(prefix(pfx))
        if node is None:
            raise KeyError(str(prefix(pfx)))
        return node.entry[1]

    def get(self, pfx: Union[str, Prefix], default: Any = None) -> Any:
        try:
            return self.exact(pfx)
        except KeyError:
            return default

    def __contains__(self, pfx: Union[str, Prefix]) -> bool:
        return self._find_exact(prefix(pfx)) is not None

    def lookup(self, addr: Union[int, str, IPv4Address]) -> Any:
        """Longest-prefix-match for ``addr``; KeyError when no route."""
        found = self.lookup_entry(addr)
        if found is None:
            raise KeyError(str(ip(addr)))
        return found[1]

    def lookup_entry(
        self, addr: Union[int, str, IPv4Address]
    ) -> Optional[Tuple[Prefix, Any]]:
        """(prefix, value) of the longest match, or None."""
        # ip(addr), inlined: this runs per packet per hop.
        value = addr if type(addr) is IPv4Address else IPv4Address(addr)
        node = self._root
        best = None
        while node is not None and (value & node.mask) == node.bits:
            if node.entry is not None:
                best = node.entry
            # Bit ``plen`` from the top picks the child; the extra
            # shift makes a /32 read bit 32 = 0, and it has no children.
            node = node.children[(value << 1 >> (32 - node.plen)) & 1]
        return best

    def items(self) -> Iterator[Tuple[Prefix, Any]]:
        """All (prefix, value) pairs in DFS order."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.entry is not None:
                yield node.entry
            for child in node.children:
                if child is not None:
                    stack.append(child)

    def keys(self) -> Iterator[Prefix]:
        for pfx, _value in self.items():
            yield pfx

    def __iter__(self) -> Iterator[Prefix]:
        return self.keys()
