"""A deterministic pin on what the per-packet path costs.

Tier-1 cannot gate wall-clock, so the forwarding path is pinned by two
counts that repeat exactly: Python frames spent in ``repro/net`` and
``repro/click`` per Click traversal, and heap blocks a FIB hit leaves
behind. Both fail at 8715f4b, where every classifier clause re-read
``packet.ip`` through ``find()``, every hop went through
``Element.output`` -> ``Port.push`` -> ``target.push``, and every trie
hit built a ``Prefix``.
"""

import os
import sys

from repro.core import VINI, Experiment
from repro.net.addr import Prefix, ip
from repro.net.trie import RadixTrie
from repro.tools import Ping

NET = os.sep + os.path.join("repro", "net") + os.sep
CLICK = os.sep + os.path.join("repro", "click") + os.sep
ELEMENTS = CLICK + "elements" + os.sep

# Measured on this scenario (exact, seeded): 54 397 frames over 1 224
# traversals = 44.4 each; 8715f4b measured 134 405 = 109.8 each. The
# budget is the new value + 10 %.
FRAMES_PER_TRAVERSAL_BUDGET = 48.9


def test_frames_per_click_traversal():
    vini = VINI(seed=42)
    for name in ("west", "middle", "east"):
        vini.add_node(name)
    vini.connect("west", "middle", bandwidth=1e9, delay=0.010)
    vini.connect("middle", "east", bandwidth=1e9, delay=0.010)
    vini.install_underlay_routes()
    exp = Experiment(vini, "chain", cpu_reservation=0.25, realtime=True)
    for name in ("west", "middle", "east"):
        exp.add_node(name, name)
    exp.connect("west", "middle")
    exp.connect("middle", "east")
    exp.configure_ospf(hello_interval=5.0, dead_interval=10.0)
    exp.run(until=30.0)
    west, east = exp.network.nodes["west"], exp.network.nodes["east"]
    ping = Ping(west.phys_node, east.tap_addr, sliver=west.sliver,
                interval=0.05, count=200).start()

    frames = traversals = 0

    def count(frame, event, _arg):
        nonlocal frames, traversals
        if event != "call":
            return
        filename = frame.f_code.co_filename
        if NET in filename or CLICK in filename:
            frames += 1
            # A traversal starts where something outside Click (a
            # socket, a tap, the CPU scheduler) calls into an element.
            if ELEMENTS in filename and CLICK not in frame.f_back.f_code.co_filename:
                traversals += 1

    sys.setprofile(count)
    try:
        vini.run(until=45.0)
    finally:
        sys.setprofile(None)
    assert ping.stats().received == 200
    # 200 echoes and 200 replies, three Click traversals each way, plus
    # the routing protocol's own packets.
    assert traversals >= 1200
    assert frames / traversals <= FRAMES_PER_TRAVERSAL_BUDGET, (frames, traversals)


def test_fib_hit_allocates_nothing():
    trie = RadixTrie()
    for index in range(1000):
        trie.insert(Prefix((10 << 24) | (index << 8), 24), index)
    trie.insert("10.0.0.0/8", "cover")
    addresses = [ip((10 << 24) | (index % 1000 << 8) | 7) for index in range(10_000)]
    found = [None] * len(addresses)
    before = sys.getallocatedblocks()
    for index, addr in enumerate(addresses):
        found[index] = trie.lookup_entry(addr)
    held = sys.getallocatedblocks() - before
    assert all(entry is not None and entry[0].plen == 24 for entry in found)
    # Ten thousand results are held, and they are the thousand stored
    # entries: 8715f4b holds a fresh tuple, Prefix and IPv4Address for
    # each (28 508 blocks here).
    assert held <= 16
