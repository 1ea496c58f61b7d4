"""A deterministic pin on what the per-packet path costs.

Tier-1 cannot gate wall-clock, so the forwarding path is pinned by
counts that repeat exactly: Python frames spent in ``repro/net`` and
``repro/click`` per Click traversal, heap blocks a FIB hit leaves
behind, and engine events scheduled per link delivery. The first two
fail at 8715f4b, where every classifier clause re-read ``packet.ip``
through ``find()``, every hop went through ``Element.output`` ->
``Port.push`` -> ``target.push``, and every trie hit built a
``Prefix``; the third fails at 4e1fb31, where a link paid an event at
the end of each serialization.
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
# budget is that value + 10 %. RadixIPLookup has since stopped
# delegating its lookup to a ``_lookup`` method: 53 197 = 43.5 each.
# A packet's ``ip``/``udp``/``tcp``/``icmp`` and ``wire_len`` have since
# become plain slots (no property getter, no generator, no copy-on-write
# test before a header write): 28 279 = 23.1 each, and the budget is
# that value + 10 %.
FRAMES_PER_TRAVERSAL_BUDGET = 25.4


def _chain():
    """West - middle - east under OSPF, converged, and a 200-echo ping
    from west to east ready to run from 30 s to 45 s."""
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
    return vini, ping


def test_frames_per_click_traversal(gc_paused):
    vini, ping = _chain()

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


def _delivered(vini):
    return sum(channel.delivered for link in vini.links.values()
               for channel in link._channels.values())


# Measured on the chain above from 30 s to 45 s (exact, seeded): 3 484
# engine events scheduled over 812 link deliveries = 4.29 each. 4e1fb31's
# link paid an event when a serialization ended as well as one at
# delivery: 4 296 = 5.29. The budget is the measured value + 10 %.
EVENTS_PER_DELIVERY_BUDGET = 4.72


def test_engine_events_per_link_delivery():
    vini, ping = _chain()
    metrics = vini.sim.metrics
    events, delivered = metrics.value("sim.events_scheduled"), _delivered(vini)
    vini.run(until=45.0)
    events = metrics.value("sim.events_scheduled") - events
    delivered = _delivered(vini) - delivered
    assert ping.stats().received == 200
    assert events / delivered <= EVENTS_PER_DELIVERY_BUDGET, (events, delivered)
