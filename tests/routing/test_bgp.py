"""BGP tests: sessions, decision process, propagation, failures."""

import pytest

from repro.net.addr import ip, prefix
from repro.routing.bgp import (
    BGPDaemon,
    BGPRoute,
    DirectTransport,
    ESTABLISHED,
    IDLE,
)
from repro.routing.platform import FEA
from repro.routing.rib import RIB
from repro.sim import Simulator


def peered_daemons(sim, asn_a=65001, asn_b=65002, delay=0.010, mrai=0.1):
    a = BGPDaemon(sim, asn_a, "192.0.2.1", rib=RIB(FEA(), sim))
    b = BGPDaemon(sim, asn_b, "192.0.2.2", rib=RIB(FEA(), sim))
    ta, tb = DirectTransport.pair(sim, delay=delay)
    sa = a.add_session(ta, asn_b, mrai=mrai)
    sb = b.add_session(tb, asn_a, mrai=mrai)
    sa.start()
    sb.start()
    return a, b, sa, sb, ta


def test_session_establishes():
    sim = Simulator(seed=71)
    a, b, sa, sb, _ = peered_daemons(sim)
    sim.run(until=5.0)
    assert sa.state == ESTABLISHED
    assert sb.state == ESTABLISHED


def test_originated_prefix_propagates_with_as_path():
    sim = Simulator(seed=72)
    a, b, sa, sb, _ = peered_daemons(sim)
    a.originate("198.18.1.0/24")
    sim.run(until=10.0)
    route = b.best("198.18.1.0/24")
    assert route is not None
    assert route.as_path == (65001,)
    assert b.rib.best("198.18.1.0/24").protocol == "bgp"


def test_as_path_grows_across_chain():
    sim = Simulator(seed=73)
    a = BGPDaemon(sim, 65001, "192.0.2.1")
    b = BGPDaemon(sim, 65002, "192.0.2.2")
    c = BGPDaemon(sim, 65003, "192.0.2.3")
    t1a, t1b = DirectTransport.pair(sim)
    t2b, t2c = DirectTransport.pair(sim)
    a.add_session(t1a, 65002, mrai=0.1).start()
    b.add_session(t1b, 65001, mrai=0.1).start()
    b.add_session(t2b, 65003, mrai=0.1).start()
    c.add_session(t2c, 65002, mrai=0.1).start()
    a.originate("198.18.1.0/24")
    sim.run(until=10.0)
    route = c.best("198.18.1.0/24")
    assert route is not None
    assert route.as_path == (65002, 65001)


def test_loop_prevention_rejects_own_asn():
    sim = Simulator(seed=74)
    a, b, sa, sb, _ = peered_daemons(sim)
    sim.run(until=5.0)
    # b receives a route already containing its own ASN.
    poisoned = BGPRoute("198.18.2.0/24", (65001, 65002), "192.0.2.1")
    sb._on_update(type("U", (), {"announce": [poisoned], "withdraw": []})())
    assert b.best("198.18.2.0/24") is None


def test_shorter_as_path_preferred():
    sim = Simulator(seed=75)
    c = BGPDaemon(sim, 65003, "192.0.2.3", rib=RIB(FEA(), sim))
    short = BGPDaemon(sim, 65001, "192.0.2.1")
    long_ = BGPDaemon(sim, 65002, "192.0.2.2")
    ts, tc1 = DirectTransport.pair(sim)
    tl, tc2 = DirectTransport.pair(sim)
    short.add_session(ts, 65003, mrai=0.1).start()
    c.add_session(tc1, 65001, mrai=0.1).start()
    long_.add_session(tl, 65003, mrai=0.1).start()
    c.add_session(tc2, 65002, mrai=0.1).start()
    sim.run(until=5.0)
    # Both announce the same prefix; long_ fakes a longer path.
    short.originate("198.18.3.0/24")
    long_.originated[prefix("198.18.3.0/24").key] = BGPRoute(
        "198.18.3.0/24", (64999, 64998), "192.0.2.2"
    )
    long_._route_changed(prefix("198.18.3.0/24"))
    sim.run(until=20.0)
    best = c.best("198.18.3.0/24")
    assert best.as_path == (65001,)


def test_local_pref_beats_as_path():
    sim = Simulator(seed=76)
    c = BGPDaemon(sim, 65003, "192.0.2.3")
    short = BGPDaemon(sim, 65001, "192.0.2.1")
    long_ = BGPDaemon(sim, 65002, "192.0.2.2")
    ts, tc1 = DirectTransport.pair(sim)
    tl, tc2 = DirectTransport.pair(sim)
    short.add_session(ts, 65003, mrai=0.1).start()
    c.add_session(tc1, 65001, mrai=0.1).start()
    long_.add_session(tl, 65003, mrai=0.1).start()

    def prefer_long(route):
        route.local_pref = 200
        return route

    c.add_session(tc2, 65002, mrai=0.1, import_policy=prefer_long).start()
    short.originate("198.18.3.0/24")
    long_.originated[prefix("198.18.3.0/24").key] = BGPRoute(
        "198.18.3.0/24", (64999, 64998), "192.0.2.2"
    )
    long_._route_changed(prefix("198.18.3.0/24"))
    sim.run(until=20.0)
    assert c.best("198.18.3.0/24").local_pref == 200


def test_session_failure_withdraws_learned_routes():
    sim = Simulator(seed=77)
    a, b, sa, sb, ta = peered_daemons(sim)
    a.originate("198.18.1.0/24")
    sim.run(until=10.0)
    assert b.best("198.18.1.0/24") is not None
    ta.fail()
    sim.run(until=12.0)
    assert sb.state == IDLE
    assert b.best("198.18.1.0/24") is None


def test_hold_timer_expires_without_keepalives():
    sim = Simulator(seed=78)
    a, b, sa, sb, ta = peered_daemons(sim)
    sim.run(until=5.0)
    # Silently break one direction only: b stops hearing from a.
    ta.up = False
    sim.run(until=200.0)
    assert sb.state == IDLE


def test_withdraw_propagates():
    sim = Simulator(seed=79)
    a, b, sa, sb, _ = peered_daemons(sim)
    a.originate("198.18.1.0/24")
    sim.run(until=10.0)
    a.withdraw_origin("198.18.1.0/24")
    sim.run(until=20.0)
    assert b.best("198.18.1.0/24") is None


def test_export_policy_can_block():
    sim = Simulator(seed=80)
    a = BGPDaemon(sim, 65001, "192.0.2.1")
    b = BGPDaemon(sim, 65002, "192.0.2.2")
    ta, tb = DirectTransport.pair(sim)
    session = a.add_session(ta, 65002, mrai=0.1)
    session.export_policy = lambda r: None if r.prefix == prefix("198.18.9.0/24") else r
    session.start()
    b.add_session(tb, 65001, mrai=0.1).start()
    a.originate("198.18.9.0/24")
    a.originate("198.18.10.0/24")
    sim.run(until=10.0)
    assert b.best("198.18.9.0/24") is None
    assert b.best("198.18.10.0/24") is not None


def test_mrai_batches_updates():
    sim = Simulator(seed=81)
    a, b, sa, sb, _ = peered_daemons(sim, mrai=5.0)
    sim.run(until=2.0)
    for i in range(10):
        a.originate(f"198.18.{i}.0/24")
    sim.run(until=30.0)
    # All 10 prefixes arrive, but in few UPDATE messages.
    assert all(b.best(f"198.18.{i}.0/24") is not None for i in range(10))
    assert sa.updates_sent <= 3


def test_a_wrong_peer_as_is_refused_with_a_notification():
    sim = Simulator(seed=79)
    a = BGPDaemon(sim, 65001, "192.0.2.1", rib=RIB(FEA(), sim))
    b = BGPDaemon(sim, 65002, "192.0.2.2", rib=RIB(FEA(), sim))
    ta, tb = DirectTransport.pair(sim, delay=0.010)
    sa = a.add_session(ta, 65099)  # b's OPEN says 65002
    sb = b.add_session(tb, 65001)
    sa.start()
    sb.start()
    sim.run(until=5.0)
    assert (sa.state, sb.state) == (IDLE, IDLE)
    assert sim.trace.count("bgp_session", reason="notification: bad peer AS") == 1
