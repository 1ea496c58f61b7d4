"""The underlay's static routes against networkx's shortest paths.

The oracle is ``networkx.all_pairs_dijkstra_path`` over the up links,
weighted by delay clamped to 1e-9, with the graph built in the order of
``VINI.links``. The drawn graphs are tie-heavy (a few delay values,
zero among them), with down links and disconnected parts. Every node's
first hop toward every other node, read back from the /32 routes
``VINI.install_underlay_routes`` installed, must be the oracle's; the
two are compared as dicts, since the order networkx lists paths in is
its own detail.
"""

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.core.infrastructure import VINI
from repro.net.addr import Prefix
from tests.conftest import battery

DELAYS = [0.0, 1e-10, 1e-9, 0.001, 0.002, 0.003]


@st.composite
def worlds(draw):
    n = draw(st.integers(1, 9))
    names = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs))) if pairs else []
    links = [(a, b, draw(st.sampled_from(DELAYS)), draw(st.booleans()))
             for a, b in edges]
    return names, links


def oracle_first_hops(vini):
    graph = nx.Graph()
    graph.add_nodes_from(vini.nodes)
    for (a, b), link in vini.links.items():
        if link.up:
            graph.add_edge(a, b, weight=max(link.delay, 1e-9))
    return {src: {dst: path[1] for dst, path in paths.items() if dst != src}
            for src, paths in nx.all_pairs_dijkstra_path(graph)}


def installed_first_hops(vini):
    hops = {}
    for src, node in vini.nodes.items():
        hops[src] = {}
        for dst, target in vini.nodes.items():
            if dst == src:
                continue
            seen = set()
            for iface in target.interfaces.values():
                route = node.routes.get(Prefix(iface.address, 32))
                if route is not None:
                    out = route.interface
                    seen.add(out.link.other_end(out).node.name)
            # Every address of a node is reached the same way, or none is.
            assert len(seen) <= 1, (src, dst, seen)
            if seen:
                hops[src][dst] = seen.pop()
    return hops


@battery(150, thorough=1000)
@given(worlds())
def test_first_hops_equal_networkx_dijkstra(world):
    names, links = world
    vini = VINI()
    for name in names:
        vini.add_node(name)
    for a, b, delay, up in links:
        link = vini.connect(a, b, delay=delay)
        if not up:
            link.fail()
    vini.install_underlay_routes()
    assert installed_first_hops(vini) == oracle_first_hops(vini)
