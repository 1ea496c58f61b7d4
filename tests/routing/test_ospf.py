"""OSPF tests: adjacency, flooding, SPF, failure convergence."""

import pytest

from repro.net.addr import ip, prefix
from repro.sim import Simulator
from tests.routing.conftest import build_topology, router_id


def configure_ospf(routers, hello=5.0, dead=10.0, stub_for=None):
    """Configure OSPF on every router; each gets a /32 stub."""
    stubs = {}
    for index, (name, router) in enumerate(sorted(routers.items())):
        rid = router_id(index)
        stub = f"{rid}/32"
        stubs[name] = stub
        router.configure_ospf(
            rid,
            hello_interval=hello,
            dead_interval=dead,
            stub_prefixes=[(stub, 0)],
        )
        router.start()
    return stubs


def test_two_router_adjacency_reaches_full():
    sim = Simulator(seed=41)
    fabric, platforms, routers, ifmap = build_topology(sim, [("a", "b")])
    configure_ospf(routers)
    sim.run(until=30.0)
    assert routers["a"].ospf.neighbor_states() == {router_id(1): "Full"}
    assert routers["b"].ospf.neighbor_states() == {router_id(0): "Full"}


def test_lsdb_synchronized_across_line():
    sim = Simulator(seed=42)
    fabric, platforms, routers, _ = build_topology(sim, [("a", "b"), ("b", "c")])
    configure_ospf(routers)
    sim.run(until=30.0)
    for router in routers.values():
        assert set(router.ospf.lsdb) == {
            int(ip(router_id(i))) for i in range(3)
        }


def test_routes_through_middle_router():
    sim = Simulator(seed=43)
    fabric, platforms, routers, ifmap = build_topology(sim, [("a", "b"), ("b", "c")])
    stubs = configure_ospf(routers)
    sim.run(until=30.0)
    best = routers["a"].rib.lookup(ip(router_id(2)))  # c's stub
    assert best is not None
    assert best.protocol == "ospf"
    # Next hop is b's interface toward a.
    assert best.nexthop == ifmap[("a", "b")][1].address


def test_costs_respected_in_path_selection():
    # Square: a-b-d (cost 1+1) vs a-c-d (cost 5+5).
    sim = Simulator(seed=44)
    edges = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]
    costs = {("a", "c"): 5, ("c", "d"): 5}
    fabric, platforms, routers, ifmap = build_topology(sim, edges, costs=costs)
    configure_ospf(routers)
    sim.run(until=30.0)
    best = routers["a"].rib.lookup(ip(router_id(3)))  # d's stub
    assert best.nexthop == ifmap[("a", "b")][1].address
    assert best.metric == pytest.approx(2.0)


def test_failure_detected_by_dead_interval_and_rerouted():
    sim = Simulator(seed=45)
    edges = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]
    fabric, platforms, routers, ifmap = build_topology(sim, edges)
    configure_ospf(routers, hello=5.0, dead=10.0)
    sim.run(until=30.0)
    # Primary path a->b->d (router ids are alphabetical: a=0,b=1,c=2,d=3).
    assert routers["a"].rib.lookup(ip(router_id(3))).nexthop == ifmap[("a", "b")][1].address
    # Fail a--b at t=30.
    fabric.fail(platforms["a"], "to_b")
    sim.run(until=55.0)
    best = routers["a"].rib.lookup(ip(router_id(3)))
    assert best is not None
    assert best.nexthop == ifmap[("a", "c")][1].address  # rerouted via c
    assert best.metric == pytest.approx(2.0)
    # Detection took at least most of a dead interval but converged
    # within dead + flooding + SPF.
    down_events = [
        r for r in sim.trace.select("ospf_neighbor", state="Down")
        if r.get("reason") == "dead_interval"
    ]
    assert down_events
    assert 35.0 <= down_events[0].time <= 41.0


def test_recovery_restores_original_path():
    sim = Simulator(seed=46)
    edges = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]
    costs = {("a", "c"): 3, ("c", "d"): 3}
    fabric, platforms, routers, ifmap = build_topology(sim, edges, costs=costs)
    configure_ospf(routers, hello=5.0, dead=10.0)
    sim.run(until=30.0)
    fabric.fail(platforms["a"], "to_b")
    sim.run(until=60.0)
    assert routers["a"].rib.lookup(ip(router_id(3))).nexthop == ifmap[("a", "c")][1].address
    fabric.recover(platforms["a"], "to_b")
    sim.run(until=100.0)
    best = routers["a"].rib.lookup(ip(router_id(3)))
    assert best.nexthop == ifmap[("a", "b")][1].address
    assert best.metric == pytest.approx(2.0)


def test_upcall_bypasses_dead_interval():
    """Section 6.1: upcalls expose failures immediately."""
    sim = Simulator(seed=47)
    edges = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]
    fabric, platforms, routers, ifmap = build_topology(sim, edges)
    configure_ospf(routers, hello=5.0, dead=10.0)
    sim.run(until=30.0)
    fabric.fail(platforms["a"], "to_b")
    # Upcall on both ends at failure time.
    routers["a"].ospf.interface_down("to_b")
    routers["b"].ospf.interface_down("to_a")
    sim.run(until=32.0)  # well under the 10s dead interval
    best = routers["a"].rib.lookup(ip(router_id(3)))
    assert best.nexthop == ifmap[("a", "c")][1].address


def test_partition_withdraws_routes():
    sim = Simulator(seed=48)
    fabric, platforms, routers, _ = build_topology(sim, [("a", "b")])
    configure_ospf(routers)
    sim.run(until=30.0)
    assert routers["a"].rib.lookup(ip(router_id(1))) is not None
    fabric.fail(platforms["a"], "to_b")
    sim.run(until=60.0)
    assert routers["a"].rib.lookup(ip(router_id(1))) is None


def test_mismatched_timers_prevent_adjacency():
    sim = Simulator(seed=49)
    fabric, platforms, routers, _ = build_topology(sim, [("a", "b")])
    routers["a"].configure_ospf(router_id(0), hello_interval=5.0, dead_interval=10.0)
    routers["b"].configure_ospf(router_id(1), hello_interval=10.0, dead_interval=40.0)
    routers["a"].start()
    routers["b"].start()
    sim.run(until=60.0)
    assert routers["a"].ospf.neighbor_states() == {}


def test_spf_is_damped():
    sim = Simulator(seed=50)
    fabric, platforms, routers, _ = build_topology(sim, [("a", "b"), ("b", "c")])
    configure_ospf(routers)
    sim.run(until=60.0)
    # A handful of SPF runs, not one per LSA arrival.
    assert routers["a"].ospf.spf_runs < 12


def test_connected_beats_ospf_for_shared_subnet():
    sim = Simulator(seed=51)
    fabric, platforms, routers, ifmap = build_topology(sim, [("a", "b"), ("b", "c")])
    configure_ospf(routers)
    sim.run(until=30.0)
    ia, ib = ifmap[("a", "b")]
    best = routers["a"].rib.best(ia.prefix)
    assert best.protocol == "connected"


def test_a_stopped_router_falls_silent_and_its_neighbour_drops_it():
    sim = Simulator(seed=52)
    fabric, platforms, routers, _ = build_topology(sim, [("a", "b")])
    configure_ospf(routers)
    sim.run(until=30.0)
    assert routers["a"].rib.lookup(router_id(1)) is not None
    routers["b"].stop()
    assert not routers["b"].ospf.started
    assert routers["b"].ospf.neighbor_states() == {}
    sim.run(until=60.0)  # past a's 10 s dead interval: b sent no hello
    assert routers["a"].ospf.neighbor_states() == {}
    assert routers["a"].rib.lookup(router_id(1)) is None
