"""Golden per-solve stream: the plane's outputs are pinned across commits.

Two worlds run under a recording ``_solve`` and every real solve is
serialized as ``(now, [(class key, rate_bps)], [(link, sender,
fluid_bps, packet_bps)], [shaper loads])`` with ``repr`` floats:

* ``abilene`` — the Abilene IIAS mirror (an ``Experiment`` target), 300
  on/off sessions over mixed demands, windows and user counts, a dozen
  finite ``size_bytes`` flows, a 4 Hz foreground ping feeding the
  packet-throughput EWMA, a physical Denver--Kansas City flap (every
  class re-paths twice) and a virtual-link flap (``blocked`` classes);
* ``shaped`` — a dumbbell whose ``rl--rr`` virtual link is shaped, five
  classes on the ``rl`` shaper and two on ``rr``'s, created out of key
  order, with a flap of the shaped link.

The sha256 constants were recorded at commit 45493e7, *before* the
re-solve moved onto standing, index-addressed state (when it still
sorted the class dict per solve and each channel's class set per
channel), so a rewrite that sums a channel's or a shaper's load in
another order, or solves at another instant, cannot pass. The same
recording hook walks the standing structures after every solve, and
checks every channel's installed coupling against an unconditional
``_apply_channel`` (a solve skips the channels whose inputs stood still).
"""

import hashlib
import random

import pytest

from repro.core import VINI, Experiment
from repro.tools import Ping
from repro.topologies import build_abilene_iias
from repro.topologies.abilene import ABILENE_POPS
from repro.traffic import FluidTrafficPlane

WARMUP = 40.0  # OSPF (hello 5 s) is up and the overlay forwards
SPAN = 20.0


def installed_coupling(state) -> tuple:
    """What one channel state and its channel hold of the fluid."""
    channel = state.channel
    return (state.fluid_bps, channel.fluid_bps, channel._fluid_qdelay,
            channel._fluid_loss, channel._fluid_reserved, channel._fluid_bw)


def _walk_standing_state(plane) -> None:
    """What the solve relies on instead of rebuilding it."""
    assert plane._ordered == sorted(plane.classes.values())
    assert [c.key for c in plane._ordered] == sorted(plane.classes)
    for position, state in enumerate(plane._channel_states.values()):
        assert state.index == position
    for cls in plane.classes.values():
        assert cls.hops == tuple(state.index for state in cls.channels)
    # A solve re-couples only the channels whose inputs moved: what every
    # channel holds must still be what an unconditional _apply_channel
    # installs for this solve's load (summed here in class-key order).
    loads = [0.0] * len(plane._channel_states)
    for cls in plane._ordered:
        if cls.count > 0 and not cls.blocked:
            for index in cls.hops:
                loads[index] += cls.rate_bps * cls.count
    for state, load in zip(plane._channel_states.values(), loads):
        held = installed_coupling(state)
        plane._apply_channel(state, load)
        assert installed_coupling(state) == held, (state.link.name, state.sender)


def _record_solves(monkeypatch, exp, lines, walk) -> None:
    solve = FluidTrafficPlane._solve

    def shaper_loads():
        return [
            (vnode.name, name, element._fluid_bps)
            for vnode in exp.network.nodes.values()
            for name, element in sorted(vnode.click.elements.items())
            if name.startswith("shape_")
        ]

    def recording(plane):
        before = plane._solves
        solve(plane)
        if plane._solves == before:
            return
        walk(plane)
        classes = [
            (key, cls.rate_bps) for key, cls in sorted(plane.classes.items())
        ]
        channels = [
            (link, sender, state.fluid_bps, state.packet_bps)
            for (link, sender), state in sorted(plane._channel_states.items())
        ]
        lines.append(repr((plane.sim.now, classes, channels, shaper_loads())))

    monkeypatch.setattr(FluidTrafficPlane, "_solve", recording)


def _abilene_stream(monkeypatch, seed: int, walk=_walk_standing_state) -> str:
    lines = []
    vini, exp = build_abilene_iias(seed=seed)
    _record_solves(monkeypatch, exp, lines, walk)
    exp.run(until=WARMUP)
    plane = FluidTrafficPlane(exp)
    sim = vini.sim
    rng = random.Random(seed)

    def session(src, dst, demand, window, size, users, stop_at):
        flow = plane.add_flow(
            src, dst, demand_bps=demand, size_bytes=size,
            window_bytes=window, count=users,
        )
        if stop_at is not None:
            sim.schedule(stop_at, flow.stop)

    finite = 0
    for n in range(300):
        start = rng.uniform(0.0, SPAN - 1.0)
        src, dst = rng.sample(ABILENE_POPS, 2)
        users = rng.choice((1, 10, 100))
        demand = rng.choice((30e3, 30e3, 80e3, None))
        window = rng.choice((None, None, 65535.0))
        stop = min(start + rng.expovariate(1.0 / 5.0), SPAN - 0.5)
        size = None
        if n % 25 == 0:  # a dozen finite flows; every third is abandoned
            size = rng.uniform(5e3, 6e4)
            finite += 1
            if finite % 3:
                stop = None
        sim.schedule(WARMUP + start, session, src, dst, demand, window, size,
                     users, None if stop is None else WARMUP + stop)
    assert finite == 12
    src = exp.network.nodes["washington"]
    dst = exp.network.nodes["seattle"]
    ping = Ping(
        src.phys_node, dst.tap_addr, sliver=src.sliver, interval=0.25,
        count=int((SPAN - 2.0) / 0.25),
    ).start()
    link = vini.link_between("denver", "kansascity")
    sim.schedule(WARMUP + 8.0, link.fail)
    sim.schedule(WARMUP + 12.0, link.recover)
    exp.fail_link_at(WARMUP + 5.0, "chicago", "newyork")
    exp.recover_link_at(WARMUP + 9.0, "chicago", "newyork")
    vini.run(until=WARMUP + SPAN)
    assert ping.received > 0
    assert plane.stats["flows_completed"] > 0
    return "\n".join(lines)


def _shaped_stream(monkeypatch, seed: int, walk=_walk_standing_state) -> str:
    """``build_dumbbell`` with the middle virtual link shaped to 6 Mb/s."""
    lines = []
    names = ["s0", "s1", "rl", "rr", "r0", "r1"]
    vini = VINI(seed=seed)
    for node in names:
        vini.add_node(node)
    for i in range(2):
        vini.connect(f"s{i}", "rl", bandwidth=1e9, delay=0.002)
        vini.connect("rr", f"r{i}", bandwidth=1e9, delay=0.002)
    vini.connect("rl", "rr", bandwidth=10e6, delay=0.01)
    vini.install_underlay_routes()
    exp = Experiment(vini, "shaped", realtime=False)
    for node in names:
        exp.add_node(node, node)
    for i in range(2):
        exp.connect(f"s{i}", "rl")
        exp.connect("rr", f"r{i}")
    exp.connect("rl", "rr", bandwidth=6e6)
    exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
    _record_solves(monkeypatch, exp, lines, walk)
    exp.run(until=10.0)
    plane = FluidTrafficPlane(exp)
    sim = vini.sim
    rng = random.Random(seed)
    # Five classes on rl's shaper, created out of key order, at demands
    # whose sum rounds differently in creation and in key order (the
    # shaper load is summed in creation order); two more on rr's.
    for k, (demand, users) in enumerate((
            (233333.3, 3), (14285.71, 7), (None, 2), (310000.1, 1),
            (27272.73, 11))):
        at = 10.1 + 0.4 * k + rng.uniform(0.0, 0.3)
        sim.schedule(at, plane.add_flow, "rl", "rr", demand, None, None, users)
    sim.schedule(10.5, plane.add_flow, "rr", "rl", 0.3e6, None, 65535.0, 5)
    sim.schedule(10.7, plane.add_flow, "rr", "rl", 0.1e6, 3e5, None, 3)
    # Unshaped company on the same physical bottleneck.
    crowd = plane.add_flow("s0", "r0", demand_bps=0.05e6, count=40)
    sim.schedule(10.0 + rng.uniform(3.0, 5.0), crowd.stop)
    src = exp.network.nodes["s1"]
    dst = exp.network.nodes["r1"]
    ping = Ping(src.phys_node, dst.tap_addr, sliver=src.sliver,
                interval=0.1, count=80).start()
    exp.fail_link_at(14.0, "rl", "rr")
    exp.recover_link_at(16.0, "rl", "rr")
    vini.run(until=20.0)
    assert ping.received > 0
    shaper = exp.network.nodes["rl"].click.elements
    assert any(name.startswith("shape_") and element._fluid_bps > 0.0
               for name, element in shaper.items())
    return "\n".join(lines)


STREAMS = {"abilene": _abilene_stream, "shaped": _shaped_stream}

# sha256 of the per-solve stream, recorded at commit 45493e7 (the last
# one whose solve rebuilt its inputs). Re-record only for a deliberate,
# documented change of the plane's arithmetic.
GOLDEN_SHA256 = {
    ("abilene", 0):
        "97ed71dd5a8e36544c1f7683231763e9c2f6a11dbe1a98149bb8c2bee6fa81cd",
    ("abilene", 7):
        "430a29a05eaa281717f8e575e6dc18b1902adbbe9256d14de396be43027e5e8e",
    ("shaped", 0):
        "f3d8fe5602e46b7e070ab837b1279695900f4863629f7cc0ae6f7ce3b960000a",
    ("shaped", 7):
        "e6c1a27bf8d06ec8ecfe0a0eb214dbf3fbf4a290bfed3f06268c77d6f051ea7c",
}


@pytest.mark.parametrize("world,seed", sorted(GOLDEN_SHA256))
def test_solve_stream_matches_recorded_hash(monkeypatch, world, seed):
    stream = STREAMS[world](monkeypatch, seed)
    digest = hashlib.sha256(stream.encode()).hexdigest()
    assert digest == GOLDEN_SHA256[(world, seed)]
