"""Property test: the radix trie against the body it replaced.

``RadixTrie`` now keeps a ``(Prefix, value)`` entry on every node that
holds a route, a mask per node from one shared table, finds or makes
the node for a prefix in ``_node_at``, and walks a lookup as ``while
node and (value & node.mask) == node.bits`` with the child bit computed
inline. The oracle is :class:`ReferenceTrie` below — ``_Node``,
``_bit``, ``_common_plen`` and the class as they stood at commit
8715f4b, verbatim but for the class name: ``value``/``has_value`` per
node, a mask rebuilt per node per lookup, ``Prefix(best.bits,
best.plen)`` built on every hit.

Hypothesis draws operation sequences over prefixes made to collide: a
handful of 32-bit patterns cut at *every* length 0..32, optionally with
the last kept bit flipped, so prefixes nest to any depth, siblings
split an edge at every bit position, ``/0`` and ``/32`` are routine,
and the same prefix is re-inserted (a replace) and re-inserted after a
remove. After every operation the two tries must agree **exactly**:
equal ``lookup_entry`` (the prefix too, not only the value), equal
``exact`` / ``in`` / ``get``, equal ``len``, and equal
``list(items())`` *in order* — the DFS order is what RIB dumps and the
golden traces are made of, so the node structure must be the old one,
structural nodes left by ``remove`` included.

``lookup_entry`` also remembers its answer per address until the next
write. Every address looked up so far is therefore looked up again
after every operation: each such lookup is a memo hit across whatever
insert, replace or remove came in between, and must still equal
the reference's fresh walk.
"""

from typing import Any, Iterator, List, Optional, Tuple, Union

import pytest

from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.net.trie import RadixTrie
from tests.conftest import battery

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st


# ---------------------------------------------------------------------
# src/repro/net/trie.py at 8715f4b, verbatim (class renamed)
# ---------------------------------------------------------------------
class _Node:
    __slots__ = ("bits", "plen", "value", "has_value", "children")

    def __init__(self, bits: int, plen: int):
        # ``bits`` are the top ``plen`` bits of the covered prefix,
        # stored left-aligned in a 32-bit word.
        self.bits = bits
        self.plen = plen
        self.value: Any = None
        self.has_value = False
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


class ReferenceTrie:
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
        target_bits = int(pfx.network)
        target_plen = pfx.plen
        node = self._root
        while True:
            if node.plen == target_plen and node.bits == target_bits:
                if not node.has_value:
                    self._count += 1
                node.value = value
                node.has_value = True
                return
            branch = _bit(target_bits, node.plen)
            child = node.children[branch]
            if child is None:
                leaf = _Node(target_bits, target_plen)
                leaf.value = value
                leaf.has_value = True
                node.children[branch] = leaf
                self._count += 1
                return
            shared = _common_plen(target_bits, child.bits, min(target_plen, child.plen))
            if shared < child.plen:
                # Split the edge at ``shared`` bits.
                mask = (0xFFFFFFFF << (32 - shared)) & 0xFFFFFFFF if shared else 0
                mid = _Node(child.bits & mask, shared)
                node.children[branch] = mid
                mid.children[_bit(child.bits, shared)] = child
                if shared == target_plen:
                    mid.value = value
                    mid.has_value = True
                    self._count += 1
                    return
                leaf = _Node(target_bits, target_plen)
                leaf.value = value
                leaf.has_value = True
                mid.children[_bit(target_bits, shared)] = leaf
                self._count += 1
                return
            node = child

    def remove(self, pfx: Union[str, Prefix]) -> Any:
        """Remove and return the value for ``pfx``; KeyError if absent.

        Structural nodes are left in place (they are cheap and removal
        churn is rare relative to lookups).
        """
        pfx = prefix(pfx)
        node = self._find_exact(pfx)
        if node is None or not node.has_value:
            raise KeyError(str(pfx))
        value = node.value
        node.value = None
        node.has_value = False
        self._count -= 1
        return value

    def clear(self) -> None:
        self._root = _Node(0, 0)
        self._count = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _find_exact(self, pfx: Prefix) -> Optional[_Node]:
        target_bits = int(pfx.network)
        node = self._root
        while node is not None:
            if node.plen > pfx.plen:
                return None
            if node.plen == pfx.plen:
                return node if node.bits == target_bits else None
            shared = _common_plen(target_bits, node.bits, node.plen)
            if shared < node.plen:
                return None
            node = node.children[_bit(target_bits, node.plen)]
        return None

    def exact(self, pfx: Union[str, Prefix]) -> Any:
        """Value stored at exactly ``pfx``; KeyError if absent."""
        node = self._find_exact(prefix(pfx))
        if node is None or not node.has_value:
            raise KeyError(str(prefix(pfx)))
        return node.value

    def get(self, pfx: Union[str, Prefix], default: Any = None) -> Any:
        try:
            return self.exact(pfx)
        except KeyError:
            return default

    def __contains__(self, pfx: Union[str, Prefix]) -> bool:
        node = self._find_exact(prefix(pfx))
        return node is not None and node.has_value

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
        value = int(ip(addr))
        node = self._root
        best: Optional[_Node] = None
        while node is not None:
            if node.plen:
                mask = (0xFFFFFFFF << (32 - node.plen)) & 0xFFFFFFFF
                if (value & mask) != node.bits:
                    break
            if node.has_value:
                best = node
            if node.plen == 32:
                break
            node = node.children[_bit(value, node.plen)]
        if best is None:
            return None
        return Prefix(best.bits, best.plen), best.value

    def items(self) -> Iterator[Tuple[Prefix, Any]]:
        """All (prefix, value) pairs in DFS order."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.has_value:
                yield Prefix(node.bits, node.plen), node.value
            for child in node.children:
                if child is not None:
                    stack.append(child)

    def keys(self) -> Iterator[Prefix]:
        for pfx, _value in self.items():
            yield pfx

    def __iter__(self) -> Iterator[Prefix]:
        return self.keys()


# ---------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------
PATTERNS = [
    0x00000000, 0xFFFFFFFF, 0x0A000000, 0x0A0A0A0A, 0x0A800001,
    0xAAAAAAAA, 0x55555555, 0x80000000, 0x7FFFFFFF, 0xC0A80101,
]


@st.composite
def prefixes(draw) -> Prefix:
    bits = draw(st.sampled_from(PATTERNS))
    plen = draw(st.integers(min_value=0, max_value=32))
    if plen and draw(st.booleans()):
        bits ^= 1 << (32 - plen)  # the sibling: splits the edge at bit plen-1
    return Prefix(bits, plen)


@st.composite
def addresses(draw) -> int:
    """An address inside (or one bit outside) a drawn prefix, with the
    host bits all-zero, all-one or random."""
    pfx = draw(prefixes())
    host_mask = 0xFFFFFFFF >> pfx.plen if pfx.plen < 32 else 0
    host = draw(st.sampled_from([0, host_mask])
                | st.integers(min_value=0, max_value=0xFFFFFFFF))
    return int(pfx.network) | (host & host_mask)


OPS = st.one_of(
    st.tuples(st.just("insert"), prefixes(), st.integers(0, 5)),
    st.tuples(st.just("insert"), prefixes(), st.integers(0, 5)),
    # Remove a fresh draw, or (an index) a prefix inserted at some point:
    # present, replaced, or already removed.
    st.tuples(st.just("remove"), prefixes() | st.integers(0, 59)),
    st.tuples(st.just("lookup"), addresses()),
    st.tuples(st.just("lookup"), addresses()),
    st.tuples(st.just("exact"), prefixes()),
)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except KeyError as exc:
        return ("KeyError", exc.args)


@given(st.lists(OPS, min_size=1, max_size=40))
@battery(300)
def test_trie_equals_the_body_it_replaced(ops):
    want, got = ReferenceTrie(), RadixTrie()
    seen = [Prefix(0, 0)]
    looked_up = []
    for op in ops:
        kind = op[0]
        if kind == "insert":
            want.insert(op[1], op[2])
            got.insert(op[1], op[2])
            seen.append(op[1])
        elif kind == "remove":
            target = seen[op[1] % len(seen)] if isinstance(op[1], int) else op[1]
            assert outcome(got.remove, target) == outcome(want.remove, target)
        elif kind == "lookup":
            looked_up.append(op[1])
            assert got.lookup_entry(op[1]) == want.lookup_entry(op[1])
        else:
            assert outcome(got.exact, op[1]) == outcome(want.exact, op[1])
            assert (op[1] in got) == (op[1] in want)
            assert got.get(op[1], "absent") == want.get(op[1], "absent")
        assert len(got) == len(want)
        assert list(got.items()) == list(want.items())
        for addr in looked_up:
            assert got.lookup_entry(addr) == want.lookup_entry(addr)
    # Every address on either side of every prefix ever used.
    for pfx in seen:
        for addr in (pfx.network, pfx.broadcast,
                     (int(pfx.network) - 1) & 0xFFFFFFFF,
                     (int(pfx.broadcast) + 1) & 0xFFFFFFFF):
            assert got.lookup_entry(addr) == want.lookup_entry(addr)


def test_lookup_returns_the_stored_entry_and_accepts_what_ip_accepts():
    trie = RadixTrie()
    trie.insert("10.0.0.0/8", "a")
    first = trie.lookup_entry("10.1.2.3")
    assert first == (Prefix.parse("10.0.0.0/8"), "a")
    assert trie.lookup_entry(0x0A010203) is first
    assert trie.lookup_entry(ip("10.1.2.3")) is first
    with pytest.raises(ValueError):
        trie.lookup_entry(1 << 32)
    with pytest.raises(ValueError):
        trie.lookup_entry("10.1.2")


def test_a_replaced_route_is_seen_by_an_address_already_answered():
    trie = RadixTrie()
    trie.insert("10.0.0.0/8", "old")
    assert trie.lookup_entry("10.1.2.3")[1] == "old"
    trie.insert("10.0.0.0/8", "new")
    assert trie.lookup_entry("10.1.2.3")[1] == "new"
    trie.insert("10.1.0.0/16", "longer")
    assert trie.lookup_entry(ip("10.1.2.3")) == (Prefix.parse("10.1.0.0/16"), "longer")
    trie.remove("10.1.0.0/16")
    assert trie.lookup_entry(0x0A010203)[1] == "new"
    trie.remove("10.0.0.0/8")
    assert trie.lookup_entry("10.1.2.3") is None


def test_bad_addresses_still_raise_after_memoized_lookups():
    trie = RadixTrie()
    trie.insert("0.0.0.0/0", "default")
    for addr in (0, 0xFFFFFFFF, "10.1.2.3", ip("10.1.2.3")):
        assert trie.lookup_entry(addr)[1] == "default"
    with pytest.raises(ValueError):
        trie.lookup_entry(1 << 32)
    with pytest.raises(ValueError):
        trie.lookup_entry("10.1.2")
    with pytest.raises(ValueError):
        trie.lookup_entry(-1)
