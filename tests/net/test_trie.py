"""Unit and property tests for the radix trie."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Prefix, RadixTrie, prefix


def lookup(trie, addr):
    """The value of ``addr``'s longest match; KeyError on a miss."""
    found = trie.lookup_entry(addr)
    if found is None:
        raise KeyError(addr)
    return found[1]


def test_empty_lookup_raises():
    trie = RadixTrie()
    with pytest.raises(KeyError):
        lookup(trie, "10.0.0.1")
    assert trie.lookup_entry("10.0.0.1") is None


def test_basic_insert_lookup():
    trie = RadixTrie()
    trie.insert("10.0.0.0/8", "A")
    assert lookup(trie, "10.1.2.3") == "A"
    with pytest.raises(KeyError):
        lookup(trie, "11.0.0.1")


def test_longest_prefix_wins():
    trie = RadixTrie()
    trie.insert("10.0.0.0/8", "short")
    trie.insert("10.1.0.0/16", "mid")
    trie.insert("10.1.1.0/24", "long")
    assert lookup(trie, "10.1.1.1") == "long"
    assert lookup(trie, "10.1.2.1") == "mid"
    assert lookup(trie, "10.2.0.1") == "short"


def test_default_route_matches_everything():
    trie = RadixTrie()
    trie.insert("0.0.0.0/0", "default")
    trie.insert("10.0.0.0/8", "ten")
    assert lookup(trie, "192.0.2.1") == "default"
    assert lookup(trie, "10.0.0.1") == "ten"


def test_host_routes():
    trie = RadixTrie()
    trie.insert("10.0.0.1/32", "host")
    trie.insert("10.0.0.0/24", "net")
    assert lookup(trie, "10.0.0.1") == "host"
    assert lookup(trie, "10.0.0.2") == "net"


def test_replace_value():
    trie = RadixTrie()
    trie.insert("10.0.0.0/8", "old")
    trie.insert("10.0.0.0/8", "new")
    assert lookup(trie, "10.0.0.1") == "new"
    assert len(trie) == 1


def test_remove():
    trie = RadixTrie()
    trie.insert("10.0.0.0/8", "A")
    trie.insert("10.1.0.0/16", "B")
    assert trie.remove("10.1.0.0/16") == "B"
    assert lookup(trie, "10.1.0.1") == "A"
    assert len(trie) == 1
    with pytest.raises(KeyError):
        trie.remove("10.1.0.0/16")


def test_remove_keeps_more_specific():
    trie = RadixTrie()
    trie.insert("10.0.0.0/8", "A")
    trie.insert("10.1.0.0/16", "B")
    trie.remove("10.0.0.0/8")
    assert lookup(trie, "10.1.0.1") == "B"
    with pytest.raises(KeyError):
        lookup(trie, "10.2.0.1")


def test_exact_and_contains():
    trie = RadixTrie()
    trie.insert("10.0.0.0/8", "A")
    assert trie.exact("10.0.0.0/8") == "A"
    assert "10.0.0.0/8" in trie
    assert "10.0.0.0/16" not in trie
    with pytest.raises(KeyError):
        trie.exact("10.0.0.0/9")
    assert trie.get("10.0.0.0/9", "dflt") == "dflt"


def test_sibling_split():
    # Forces an edge split: 10.0.0.0/24 and 10.0.1.0/24 share /23.
    trie = RadixTrie()
    trie.insert("10.0.0.0/24", "left")
    trie.insert("10.0.1.0/24", "right")
    assert lookup(trie, "10.0.0.5") == "left"
    assert lookup(trie, "10.0.1.5") == "right"
    with pytest.raises(KeyError):
        lookup(trie, "10.0.2.5")


def test_split_point_gains_value():
    trie = RadixTrie()
    trie.insert("10.0.1.0/24", "leaf")
    trie.insert("10.0.0.0/23", "mid")  # covers the leaf
    assert lookup(trie, "10.0.0.1") == "mid"
    assert lookup(trie, "10.0.1.1") == "leaf"


def test_items_returns_all():
    trie = RadixTrie()
    entries = {"10.0.0.0/8": 1, "10.1.0.0/16": 2, "192.168.0.0/24": 3, "0.0.0.0/0": 4}
    for text, value in entries.items():
        trie.insert(text, value)
    found = {str(p): v for p, v in trie.items()}
    assert found == entries
    assert sorted(str(p) for p, _v in trie.items()) == sorted(entries)


def test_an_empty_table_is_still_true():
    assert RadixTrie()  # `if table:` asks whether there is one, not its size


# ----------------------------------------------------------------------
# Property tests: the trie agrees with a brute-force reference.
# ----------------------------------------------------------------------
prefixes = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
).map(lambda t: Prefix(t[0], t[1]))

addresses = st.integers(min_value=0, max_value=2**32 - 1)


def _reference_lookup(table, addr):
    best = None
    for pfx, value in table.items():
        if addr in pfx and (best is None or pfx.plen > best[0].plen):
            best = (pfx, value)
    return best


@settings(max_examples=200, deadline=None)
@given(st.lists(prefixes, max_size=40), addresses)
def test_trie_matches_bruteforce(pfx_list, addr):
    trie = RadixTrie()
    table = {}
    for i, pfx in enumerate(pfx_list):
        trie.insert(pfx, i)
        table[pfx] = i
    expected = _reference_lookup(table, addr)
    got = trie.lookup_entry(addr)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got[0] == expected[0]
        assert got[1] == expected[1]


@settings(max_examples=100, deadline=None)
@given(st.lists(prefixes, max_size=30, unique_by=lambda p: p.key))
def test_insert_then_remove_leaves_empty(pfx_list):
    trie = RadixTrie()
    for i, pfx in enumerate(pfx_list):
        trie.insert(pfx, i)
    assert len(trie) == len(pfx_list)
    for pfx in pfx_list:
        trie.remove(pfx)
    assert len(trie) == 0
    assert trie.lookup_entry(0) is None


@settings(max_examples=100, deadline=None)
@given(st.lists(prefixes, max_size=30))
def test_items_roundtrip(pfx_list):
    trie = RadixTrie()
    expected = {}
    for i, pfx in enumerate(pfx_list):
        trie.insert(pfx, i)
        expected[pfx] = i
    assert dict(trie.items()) == expected


# ----------------------------------------------------------------------
# Edge cases: default route, /32 leaves, remove/lookup interactions.
# ----------------------------------------------------------------------
def test_default_route_matches_everything():
    trie = RadixTrie()
    trie.insert("0.0.0.0/0", "default")
    assert lookup(trie, "1.2.3.4") == "default"
    assert lookup(trie, "255.255.255.255") == "default"
    trie.insert("10.0.0.0/8", "ten")
    assert lookup(trie, "10.9.9.9") == "ten"
    assert lookup(trie, "11.0.0.1") == "default"
    pfx, value = trie.lookup_entry("11.0.0.1")
    assert str(pfx) == "0.0.0.0/0" and value == "default"


def test_host_route_leaf():
    trie = RadixTrie()
    trie.insert("192.168.1.0/24", "net")
    trie.insert("192.168.1.77/32", "host")
    assert lookup(trie, "192.168.1.77") == "host"
    assert lookup(trie, "192.168.1.78") == "net"
    assert trie.exact("192.168.1.77/32") == "host"
    assert len(trie) == 2


def test_insert_remove_lookup_sequence():
    trie = RadixTrie()
    trie.insert("10.0.0.0/8", "a")
    trie.insert("10.1.0.0/16", "b")
    trie.insert("10.1.2.0/24", "c")
    assert lookup(trie, "10.1.2.3") == "c"
    assert trie.remove("10.1.2.0/24") == "c"
    assert lookup(trie, "10.1.2.3") == "b"
    assert trie.remove("10.1.0.0/16") == "b"
    assert lookup(trie, "10.1.2.3") == "a"
    assert trie.remove("10.0.0.0/8") == "a"
    with pytest.raises(KeyError):
        lookup(trie, "10.1.2.3")
    assert len(trie) == 0
    # Reinsertion after full removal works.
    trie.insert("10.1.0.0/16", "b2")
    assert lookup(trie, "10.1.2.3") == "b2"


def test_lookup_after_remove_with_structural_nodes():
    """remove() leaves structural nodes; they must stay invisible."""
    trie = RadixTrie()
    trie.insert("10.0.0.0/9", "left")
    trie.insert("10.128.0.0/9", "right")  # forces a split node at /8
    trie.insert("10.0.0.0/8", "parent")
    assert trie.remove("10.0.0.0/9") == "left"
    # The /9 node may remain structurally, but matches fall through to /8.
    assert lookup(trie, "10.5.0.1") == "parent"
    assert "10.0.0.0/9" not in trie
    with pytest.raises(KeyError):
        trie.exact("10.0.0.0/9")
    assert sorted(str(p) for p, _v in trie.items()) == ["10.0.0.0/8", "10.128.0.0/9"]
    with pytest.raises(KeyError):
        trie.remove("10.0.0.0/9")  # double remove raises
