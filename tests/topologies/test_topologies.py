"""Tests for the built-in topologies."""

import networkx as nx
import pytest

from repro.tools import Ping
from repro.topologies import (
    ABILENE_LINKS,
    ABILENE_POPS,
    build_abilene,
    build_abilene_iias,
    build_deter,
    build_deter_iias,
    build_full_mesh,
    build_line,
    build_ring,
    build_star,
)
from repro.topologies.generators import _build

#: The ``alpha`` and ``beta`` of ``networkx.waxman_graph``.
WAXMAN_ALPHA = 0.6
WAXMAN_BETA = 0.3


def build_waxman(
    n: int,
    bandwidth: float = 1e9,
    delay: float = 0.002,
    seed: int = 0,
    name: str = "waxman",
    realtime: bool = True,
):
    """A connected Waxman random graph (extra edges added if needed)."""
    graph = nx.waxman_graph(n, alpha=WAXMAN_ALPHA, beta=WAXMAN_BETA, seed=seed)
    # Stitch components together deterministically.
    components = [sorted(c) for c in nx.connected_components(graph)]
    for first, second in zip(components, components[1:]):
        graph.add_edge(first[0], second[0])
    names = [f"n{i}" for i in range(n)]
    edges = [(names[a], names[b]) for a, b in sorted(graph.edges())]
    return _build(edges, names, bandwidth, delay, seed, name, realtime)


class TestDeter:
    def test_physical_forwarding_path(self):
        vini = build_deter()
        ping = Ping(vini.nodes["src"], vini.nodes["sink"].address,
                    interval=0.01, count=20).start()
        vini.run(until=2.0)
        stats = ping.stats()
        assert stats.received == 20
        assert stats.avg_rtt < 0.001  # LAN-scale

    def test_iias_overlay_converges(self):
        vini, exp = build_deter_iias()
        exp.run(until=30.0)
        src = exp.network.nodes["src"]
        sink = exp.network.nodes["sink"]
        assert str(sink.tap_addr) == "192.168.1.2"
        route = src.xorp.rib.lookup(sink.tap_addr)
        assert route is not None
        assert route.protocol == "ospf"


class TestAbilene:
    def test_all_pops_and_links_present(self):
        vini = build_abilene()
        assert len(vini.nodes) == 11
        assert len(vini.links) == 14

    def test_underlay_full_reachability(self):
        vini = build_abilene()
        ping = Ping(vini.nodes["seattle"], vini.nodes["washington"].address,
                    interval=0.5, count=4).start()
        vini.run(until=5.0)
        assert ping.stats().received == 4

    def test_iias_mirror_converges_with_correct_default_path(self):
        vini, exp = build_abilene_iias(seed=1)
        exp.run(until=40.0)
        washington = exp.network.nodes["washington"]
        seattle = exp.network.nodes["seattle"]
        route = washington.xorp.rib.lookup(seattle.tap_addr)
        assert route is not None
        # Paper: default route leaves D.C. through New York.
        assert route.ifname == "to_newyork"

    def test_alternate_path_via_atlanta_after_failure(self):
        vini, exp = build_abilene_iias(seed=2)
        exp.run(until=40.0)
        exp.network.fail_link("denver", "kansascity")
        vini.run(until=80.0)
        washington = exp.network.nodes["washington"]
        seattle = exp.network.nodes["seattle"]
        route = washington.xorp.rib.lookup(seattle.tap_addr)
        assert route is not None
        # Paper: new route through Atlanta, Houston, LA, Sunnyvale.
        assert route.ifname == "to_atlanta"


class TestGenerators:
    def test_line(self):
        vini, exp = build_line(4)
        assert len(exp.network.links) == 3

    def test_ring(self):
        vini, exp = build_ring(5)
        assert len(exp.network.links) == 5

    def test_star(self):
        vini, exp = build_star(4)
        assert len(exp.network.links) == 4
        assert len(exp.network.nodes["hub"].interfaces) == 4

    def test_full_mesh(self):
        vini, exp = build_full_mesh(4)
        assert len(exp.network.links) == 6

    def test_waxman_connected(self):
        vini, exp = build_waxman(12, seed=5)
        graph = nx.Graph()
        for vlink in exp.network.links:
            graph.add_edge(vlink.a.name, vlink.b.name)
        graph.add_nodes_from(exp.network.nodes)
        assert nx.is_connected(graph)

    def test_waxman_deterministic_per_seed(self):
        _, exp1 = build_waxman(10, seed=9)
        _, exp2 = build_waxman(10, seed=9)
        edges1 = {(l.a.name, l.b.name) for l in exp1.network.links}
        edges2 = {(l.a.name, l.b.name) for l in exp2.network.links}
        assert edges1 == edges2
