"""Generic topology generators.

VINI's point is *arbitrary* virtual topologies on a fixed substrate
(Section 3.1); these helpers generate the usual suspects — line, ring,
star, full mesh and dumbbell.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.experiment import Experiment
from repro.core.infrastructure import VINI

#: The dumbbell's middle link delay (s).
BOTTLENECK_DELAY = 0.01
#: The star's physical links: 20 Mb/s, so that a flash crowd hurts at
#: the links as well as at the hub's CPU, and 5 ms each.
STAR_BANDWIDTH = 20e6
STAR_DELAY = 0.005


def _build(
    edges: List[Tuple[str, str]],
    names: List[str],
    bandwidth: float,
    delay: float,
    seed: int,
    name: str,
    realtime: bool,
) -> Tuple[VINI, Experiment]:
    vini = VINI(seed=seed)
    for node in names:
        vini.add_node(node)
    for a, b in edges:
        vini.connect(a, b, bandwidth=bandwidth, delay=delay)
    vini.install_underlay_routes()
    exp = Experiment(vini, name, realtime=realtime)
    for node in names:
        exp.add_node(node, node)
    for a, b in edges:
        exp.connect(a, b)
    return vini, exp


def build_line(
    n: int,
    bandwidth: float = 1e9,
    delay: float = 0.002,
    seed: int = 0,
    name: str = "line",
    realtime: bool = True,
) -> Tuple[VINI, Experiment]:
    names = [f"n{i}" for i in range(n)]
    edges = list(zip(names, names[1:]))
    return _build(edges, names, bandwidth, delay, seed, name, realtime)


def build_ring(
    n: int,
    bandwidth: float = 1e9,
    delay: float = 0.002,
    seed: int = 0,
    name: str = "ring",
    realtime: bool = True,
) -> Tuple[VINI, Experiment]:
    names = [f"n{i}" for i in range(n)]
    edges = list(zip(names, names[1:])) + [(names[-1], names[0])]
    return _build(edges, names, bandwidth, delay, seed, name, realtime)


def build_star(
    leaves: int,
    seed: int = 0,
    name: str = "star",
    realtime: bool = True,
) -> Tuple[VINI, Experiment]:
    names = ["hub"] + [f"leaf{i}" for i in range(leaves)]
    edges = [("hub", leaf) for leaf in names[1:]]
    return _build(edges, names, STAR_BANDWIDTH, STAR_DELAY, seed, name, realtime)


def build_full_mesh(
    n: int,
    bandwidth: float = 1e9,
    delay: float = 0.002,
    seed: int = 0,
    name: str = "mesh",
    realtime: bool = True,
) -> Tuple[VINI, Experiment]:
    names = [f"n{i}" for i in range(n)]
    edges = [
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n)
    ]
    return _build(edges, names, bandwidth, delay, seed, name, realtime)


def build_dumbbell(
    pairs: int = 2,
    bandwidth: float = 1e9,
    bottleneck: float = 10e6,
    delay: float = 0.002,
    seed: int = 0,
    name: str = "dumbbell",
    realtime: bool = True,
) -> Tuple[VINI, Experiment]:
    """The classic congestion-calibration topology.

    ``pairs`` senders (``s0..``) hang off router ``rl``, matching
    receivers (``r0..``) off router ``rr``; only the ``rl--rr`` middle
    link is narrow (``bottleneck`` b/s, :data:`BOTTLENECK_DELAY` s), so
    every s->r flow competes there and nowhere else. This is the
    2-link-path bottleneck the fluid-vs-packet differential
    calibration runs on.
    """
    names = (
        [f"s{i}" for i in range(pairs)]
        + ["rl", "rr"]
        + [f"r{i}" for i in range(pairs)]
    )
    vini = VINI(seed=seed)
    for node in names:
        vini.add_node(node)
    for i in range(pairs):
        vini.connect(f"s{i}", "rl", bandwidth=bandwidth, delay=delay)
        vini.connect("rr", f"r{i}", bandwidth=bandwidth, delay=delay)
    vini.connect("rl", "rr", bandwidth=bottleneck, delay=BOTTLENECK_DELAY)
    vini.install_underlay_routes()
    exp = Experiment(vini, name, realtime=realtime)
    for node in names:
        exp.add_node(node, node)
    for i in range(pairs):
        exp.connect(f"s{i}", "rl")
        exp.connect("rr", f"r{i}")
    exp.connect("rl", "rr")
    return vini, exp
