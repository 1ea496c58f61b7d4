"""Unit tests for the RIB."""

import random

import pytest

from repro.net.addr import Prefix, ip, prefix
from repro.routing.platform import FEA
from repro.routing.rib import AdminDistance, RIB, RibRoute

from .test_ospf_churn import (
    SETTLE,
    apply_event,
    churn_events,
    make_world,
    random_graph,
)


def route(pfx, proto, distance, metric=0.0, nexthop="10.0.0.1", ifname="eth0"):
    return RibRoute(pfx, ip(nexthop), ifname, proto, distance, metric)


def test_single_route_installed_in_fea():
    fea = FEA()
    rib = RIB(fea)
    rib.update(route("10.1.0.0/16", "static", 1))
    assert len(fea) == 1
    assert rib.best("10.1.0.0/16").protocol == "static"


def test_lower_distance_wins():
    fea = FEA()
    rib = RIB(fea)
    rib.update(route("10.1.0.0/16", "rip", AdminDistance.RIP, nexthop="10.0.0.2"))
    rib.update(route("10.1.0.0/16", "ospf", AdminDistance.OSPF, nexthop="10.0.0.3"))
    best = rib.best("10.1.0.0/16")
    assert best.protocol == "ospf"
    assert fea.routes[prefix("10.1.0.0/16").key][0] == ip("10.0.0.3")


def test_metric_breaks_distance_tie():
    fea = FEA()
    rib = RIB(fea)
    rib.update(route("10.1.0.0/16", "ospf", 110, metric=20, nexthop="10.0.0.2"))
    # Same protocol re-offering with better metric replaces.
    rib.update(route("10.1.0.0/16", "ospf", 110, metric=5, nexthop="10.0.0.3"))
    assert rib.best("10.1.0.0/16").nexthop == ip("10.0.0.3")


def test_withdraw_falls_back_to_next_best():
    fea = FEA()
    rib = RIB(fea)
    rib.update(route("10.1.0.0/16", "ospf", 110, nexthop="10.0.0.2"))
    rib.update(route("10.1.0.0/16", "rip", 120, nexthop="10.0.0.3"))
    rib.withdraw("10.1.0.0/16", "ospf")
    assert rib.best("10.1.0.0/16").protocol == "rip"
    rib.withdraw("10.1.0.0/16", "rip")
    assert rib.best("10.1.0.0/16") is None
    assert len(fea) == 0


def test_withdraw_absent_is_noop():
    rib = RIB(FEA())
    rib.withdraw("10.1.0.0/16", "ospf")  # no exception


def test_longest_prefix_lookup():
    rib = RIB(FEA())
    rib.update(route("10.0.0.0/8", "static", 1, nexthop="10.0.0.2"))
    rib.update(route("10.1.0.0/16", "static", 1, nexthop="10.0.0.3"))
    assert rib.lookup("10.1.5.5").nexthop == ip("10.0.0.3")
    assert rib.lookup("10.2.5.5").nexthop == ip("10.0.0.2")
    assert rib.lookup("192.0.2.1") is None


def test_change_listener_fires_on_real_changes_only():
    rib = RIB(FEA())
    events = []
    rib.on_change(lambda pfx, best: events.append((str(pfx), best.protocol if best else None)))
    rib.update(route("10.1.0.0/16", "ospf", 110, nexthop="10.0.0.2"))
    # Identical re-offer: no event.
    rib.update(route("10.1.0.0/16", "ospf", 110, nexthop="10.0.0.2"))
    rib.withdraw("10.1.0.0/16", "ospf")
    assert events == [("10.1.0.0/16", "ospf"), ("10.1.0.0/16", None)]


def test_withdraw_protocol_bulk():
    rib = RIB(FEA())
    rib.update(route("10.1.0.0/16", "rip", 120))
    rib.update(route("10.2.0.0/16", "rip", 120))
    rib.update(route("10.2.0.0/16", "static", 1))
    rib.withdraw_protocol("rip")
    assert rib.best("10.1.0.0/16") is None
    assert rib.best("10.2.0.0/16").protocol == "static"


def test_routes_listing():
    rib = RIB(FEA())
    rib.update(route("10.1.0.0/16", "static", 1))
    rib.update(route("10.2.0.0/16", "static", 1))
    assert len(rib.routes()) == 2
    assert len(rib) == 2


@pytest.mark.parametrize("seed", [10, 11])
def test_fib_delta_matches_full_rebuild(seed):
    """The delta stream the RIB applied leaves the FEA byte-identical
    to reprogramming it from scratch, at every settle point."""
    rng = random.Random(seed)
    names, edges, costs = random_graph(rng, rng.randint(4, 8))
    sim, fabric, platforms, routers, ifmap = make_world(
        seed, names, edges, costs
    )
    sim.run(until=SETTLE)

    def check_rebuild():
        for name, router in sorted(routers.items()):
            before = dict(router.platform.fea.routes)
            router.rib.rebuild_fib()
            assert dict(router.platform.fea.routes) == before, name

    check_rebuild()
    for event in churn_events(rng, edges):
        apply_event(event, fabric, platforms, routers, ifmap)
        sim.run(until=sim.now + SETTLE)
        check_rebuild()


def test_fea_clear_only_drops_rib_routes():
    """FEA.clear drops exactly the RIB-programmed entries."""
    fea = FEA()
    fea.install(Prefix.parse("10.1.0.0/16"), None, "eth0")
    assert len(fea) == 1
    fea.clear()
    assert len(fea) == 0
