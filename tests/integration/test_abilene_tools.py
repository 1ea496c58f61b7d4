"""Integration: measurement tools on the full Abilene mirror."""

import pytest

from repro.tools import Ping, Traceroute
from repro.topologies import build_abilene_iias


@pytest.fixture(scope="module")
def abilene():
    vini, exp = build_abilene_iias(seed=31)
    exp.run(until=40.0)
    return vini, exp


def test_traceroute_shows_the_papers_default_path(abilene):
    """The D.C. -> Seattle path of Fig. 7: NY, Chicago, Indy, KC, Denver."""
    vini, exp = abilene
    washington = exp.network.nodes["washington"]
    seattle = exp.network.nodes["seattle"]
    trace = Traceroute(
        washington.phys_node, seattle.tap_addr, sliver=washington.sliver
    ).start()
    vini.run(until=vini.sim.now + 30.0)
    assert trace.done
    hop_names = []
    by_tap = {str(v.tap_addr): name for name, v in exp.network.nodes.items()}
    for hop in trace.path():
        hop_names.append(by_tap.get(hop, hop))
    assert hop_names == [
        "washington",  # the local Click is virtual hop 1
        "newyork",
        "chicago",
        "indianapolis",
        "kansascity",
        "denver",
        "seattle",
    ]


def test_all_pop_pairs_reachable(abilene):
    vini, exp = abilene
    nodes = list(exp.network.nodes.values())
    missing = []
    for src in nodes:
        for dst in nodes:
            if src is dst:
                continue
            if src.xorp.rib.lookup(dst.tap_addr) is None:
                missing.append((src.name, dst.name))
    assert missing == []


def test_rtt_matrix_symmetric(abilene):
    vini, exp = abilene
    washington = exp.network.nodes["washington"]
    seattle = exp.network.nodes["seattle"]
    ping_east = Ping(washington.phys_node, seattle.tap_addr,
                     sliver=washington.sliver, interval=0.5, count=4).start()
    ping_west = Ping(seattle.phys_node, washington.tap_addr,
                     sliver=seattle.sliver, interval=0.5, count=4).start()
    vini.run(until=vini.sim.now + 10.0)
    east = ping_east.stats().avg_rtt
    west = ping_west.stats().avg_rtt
    assert east == pytest.approx(west, rel=0.02)


def test_ospf_metric_matches_link_weights(abilene):
    """Route metrics through the mirror equal the sum of configured
    OSPF costs along the chosen path (validated against networkx)."""
    import networkx as nx

    from repro.topologies.abilene import ABILENE_LINKS, ospf_weight

    vini, exp = abilene
    graph = nx.Graph()
    for (a, b), delay in ABILENE_LINKS.items():
        graph.add_edge(a, b, weight=ospf_weight(delay))
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight="weight"))
    for src_name, src in exp.network.nodes.items():
        for dst_name, dst in exp.network.nodes.items():
            if src_name == dst_name:
                continue
            route = src.xorp.rib.lookup(dst.tap_addr)
            assert route.metric == pytest.approx(lengths[src_name][dst_name])
