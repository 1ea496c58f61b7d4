"""Churn battery: OSPF against networkx after every topology change.

``test_ospf_properties.py`` checks shortest-path metrics at cold start;
this file checks them through random fail / recover / cost-change
sequences. After *every* event has settled, every router's RIB must
agree with an independent oracle — networkx over the surviving weighted
graph — on metric, on a next hop that lies on a shortest path, and on
which destinations have no route at all. Topologies and churn are drawn
from seeded RNGs so failures replay.
"""

import random

import networkx as nx
import pytest

from repro.net.addr import ip
from repro.sim import Simulator

from .conftest import build_topology, router_id

HELLO = 1.0
DEAD = 4.0
SETTLE = 6.0  # > dead interval + spf holddown: every event fully settles


def random_graph(rng, n):
    """A connected edge list over routers r0..r{n-1} with random costs."""
    names = [f"r{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((names[rng.randrange(i)], names[i]))
    extra = rng.randint(0, n)
    while extra > 0:
        a, b = rng.sample(names, 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.append((a, b))
        extra -= 1
    costs = {edge: rng.randint(1, 10) for edge in edges}
    return names, edges, costs


def make_world(seed, names, edges, costs):
    sim = Simulator(seed=seed)
    fabric, platforms, routers, ifmap = build_topology(
        sim, edges, delay=0.001, costs=costs
    )
    for index, name in enumerate(names):
        routers[name].configure_ospf(
            router_id(index),
            hello_interval=HELLO,
            dead_interval=DEAD,
            stub_prefixes=[(f"10.255.{index}.1/32", 0)],
        )
        routers[name].start()
    return sim, fabric, platforms, routers, ifmap


def churn_events(rng, edges, count=8):
    """(kind, edge, new_cost) tuples; failures recover before reuse."""
    events = []
    down = set()
    for _ in range(count):
        up = [e for e in edges if e not in down]
        if down and (not up or rng.random() < 0.45):
            edge = rng.choice(sorted(down))
            events.append(("recover", edge, None))
            down.discard(edge)
        elif rng.random() < 0.5 and up:
            edge = rng.choice(up)
            events.append(("fail", edge, None))
            down.add(edge)
        else:
            edge = rng.choice(edges)
            events.append(("cost", edge, rng.randint(1, 10)))
    return events


def apply_event(event, fabric, platforms, routers, ifmap):
    kind, (a, b), new_cost = event
    ia, ib = ifmap[(a, b)]
    if kind == "fail":
        fabric.fail(platforms[a], ia.name)
        routers[a].ospf.interface_down(ia.name)
        routers[b].ospf.interface_down(ib.name)
    elif kind == "recover":
        fabric.recover(platforms[a], ia.name)
        routers[a].ospf.interface_up(ia.name)
        routers[b].ospf.interface_up(ib.name)
    else:
        ia.cost = new_cost
        ib.cost = new_cost
        routers[a].ospf._originate()
        routers[b].ospf._originate()


def assert_ribs_match_networkx(names, routers, live):
    """Every ordered router pair against the surviving graph ``live``
    ({edge: cost}): reachable => the RIB's metric is the shortest-path
    length and its next hop is a live neighbour on a shortest path;
    unreachable => no OSPF route."""
    graph = nx.Graph()
    graph.add_nodes_from(names)
    graph.add_weighted_edges_from((a, b, cost) for (a, b), cost in live.items())
    dist = dict(nx.all_pairs_dijkstra_path_length(graph, weight="weight"))
    for src in names:
        for index, dst in enumerate(names):
            if src == dst:
                continue
            route = routers[src].rib.lookup(ip(router_id(index)))
            if dst not in dist[src]:
                assert route is None or route.protocol != "ospf", (
                    f"{src}->{dst}: unreachable but routed {route}"
                )
                continue
            assert route is not None and route.protocol == "ospf", (
                f"{src} has no route to {dst}"
            )
            assert route.metric == dist[src][dst], (
                f"{src}->{dst}: ospf={route.metric} nx={dist[src][dst]}"
            )
            via = route.ifname[len("to_"):]
            assert graph.has_edge(src, via), f"{src}->{dst}: dead hop {via}"
            assert graph[src][via]["weight"] + dist[via][dst] == dist[src][dst], (
                f"{src}->{dst}: {via} is not on a shortest path"
            )


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_ribs_match_networkx_after_every_churn_event(seed):
    rng = random.Random(seed)
    names, edges, costs = random_graph(rng, rng.randint(4, 9))
    sim, fabric, platforms, routers, ifmap = make_world(seed, names, edges, costs)
    sim.run(until=SETTLE)
    costs = dict(costs)
    down = set()
    assert_ribs_match_networkx(names, routers, costs)
    for event in churn_events(rng, edges):
        apply_event(event, fabric, platforms, routers, ifmap)
        kind, edge, new_cost = event
        if kind == "fail":
            down.add(edge)
        elif kind == "recover":
            down.discard(edge)
        else:
            costs[edge] = new_cost
        sim.run(until=sim.now + SETTLE)
        assert_ribs_match_networkx(
            names, routers, {e: c for e, c in costs.items() if e not in down}
        )


def test_link_only_one_end_still_advertises_is_not_used():
    """SPF's bidirectional check: r1 hears of the r1-r2 failure at once,
    r2 only at its dead interval. In between r2's LSA still lists the
    link, and nobody may route over it — r0's cheap path to r1 was
    through r2."""
    names = ["r0", "r1", "r2"]
    edges = [("r0", "r1"), ("r0", "r2"), ("r1", "r2")]
    costs = {("r0", "r1"): 10, ("r0", "r2"): 1, ("r1", "r2"): 1}
    sim, fabric, platforms, routers, ifmap = make_world(31, names, edges, costs)
    sim.run(until=SETTLE)
    assert_ribs_match_networkx(names, routers, costs)
    ia, _ib = ifmap[("r1", "r2")]
    fabric.fail(platforms["r1"], ia.name)
    routers["r1"].ospf.interface_down(ia.name)
    sim.run(until=sim.now + DEAD / 4)
    assert routers["r2"].ospf.neighbor_states()[router_id(1)] == "Full"
    del costs[("r1", "r2")]
    assert_ribs_match_networkx(names, routers, costs)
