"""Scenario regressions: prefix hijack and stuck (ghost) routes.

Both scenarios run on the small internet zoo as FaultPlans, and both
are observed two ways at once — live via :class:`ConvergenceTracker`
and offline via :func:`episodes_from_trace` — with the two derivations
asserted equal, the same live-vs-batch cross-check the metric registry
gets elsewhere.
"""

import pytest

from repro.faults.invariants import walk_overlay_path
from repro.net.addr import IPv4Address
from repro.obs.routing import BLACKHOLE, ConvergenceTracker, episodes_from_trace
from repro.topologies.internet import (
    build_internet,
    hijack_plan,
    stuck_route_plan,
)

SMALL = dict(n_as=6, seed=3)
WARMUP = 60.0
VICTIM, ATTACKER = 3, 6


def _episode_keys(episodes):
    return [(e.trigger, e.start, e.changes, e.first_change, e.last_change)
            for e in episodes]


@pytest.fixture
def world():
    built = build_internet(**SMALL)
    built.run(until=WARMUP)
    assert built.converged_routers() == built.spec.n_routers
    return built


def _victim_host(spec):
    return str(IPv4Address(int(spec.by_asn[VICTIM].prefix.network) + 1))


def test_hijack_diverts_blackholes_and_heals(world):
    spec = world.spec
    victim = spec.by_asn[VICTIM]
    attacker = spec.by_asn[ATTACKER]
    pre_paths = {
        a.asn: world.best_as_path(a.anchor, VICTIM)
        for a in spec.ases if a.asn != VICTIM
    }
    tracker = ConvergenceTracker(world.experiment).install()

    plan = hijack_plan(world, ATTACKER, VICTIM, at=WARMUP + 1.0,
                       duration=20.0)
    world.experiment.apply_faults(plan)

    world.run(until=WARMUP + 10.0)  # mid-hijack
    # The attacker's AS is pulled to the bogus origination...
    assert world.best_as_path(attacker.anchor, VICTIM) == (ATTACKER,)
    # ...where traffic black-holes: the bogus origin owns no data-plane
    # route for the prefix.
    assert world.anchor(ATTACKER).xorp.rib.best(victim.prefix) is None
    inside = attacker.routers[1]
    status, walked = walk_overlay_path(
        world.network, world.node(inside), world.anchor(VICTIM),
        addr=_victim_host(spec),
    )
    assert status == "blackhole", (status, walked)
    # The true origin keeps its own prefix.
    assert world.best_as_path(victim.anchor, VICTIM) == (VICTIM,)

    world.run(until=WARMUP + 40.0)  # withdrawn and re-converged
    assert world.converged_routers() == spec.n_routers
    post_paths = {
        a.asn: world.best_as_path(a.anchor, VICTIM)
        for a in spec.ases if a.asn != VICTIM
    }
    assert post_paths == pre_paths  # the hijack healed completely

    # Two fault firings -> two episodes, each with route churn; the
    # live stitching equals the offline trace re-derivation.
    assert len(tracker.episodes) == 2
    assert all(e.changes > 0 for e in tracker.episodes)
    assert [e.trigger for e in tracker.episodes] == [
        f"hijack-as{ATTACKER}:call as{ATTACKER} hijacks {victim.prefix}",
        f"hijack-as{ATTACKER}:call as{ATTACKER} withdraws {victim.prefix}",
    ]
    offline = episodes_from_trace(world.sim.trace.records)
    assert _episode_keys(offline) == _episode_keys(tracker.episodes)
    assert [e.as_dict() for e in offline] == \
        [e.as_dict() for e in tracker.episodes]


def test_stuck_route_blackholes_until_restored(world):
    spec = world.spec
    edge = spec.inter_edges[0]
    near, far = spec.by_asn[edge.b_asn], spec.by_asn[edge.a_asn]
    far_host = str(IPv4Address(int(far.prefix.network) + 1))
    tracker = ConvergenceTracker(world.experiment).install()
    tracker.watch_path(near.anchor, far.anchor, addr=far_host)

    fail_at = WARMUP + 1.0
    plan = stuck_route_plan(world, edge.a_asn, edge.b_asn, at=fail_at,
                            duration=30.0)
    world.experiment.apply_faults(plan)

    world.run(until=fail_at + 10.0)  # inside the stuck window
    # Control plane is silent (hold_time 90 > 10): the stale route is
    # still installed, so traffic black-holes instead of rerouting.
    status, walked = walk_overlay_path(
        world.network, world.node(near.anchor), world.node(far.anchor),
        addr=far_host,
    )
    assert status == "blackhole", (status, walked)
    assert world.node(near.anchor).xorp.rib.best(far.prefix) is not None

    world.run(until=fail_at + 120.0)  # restored, sessions re-settled
    assert world.converged_routers() == spec.n_routers
    status, _path = walk_overlay_path(
        world.network, world.node(near.anchor), world.node(far.anchor),
        addr=far_host,
    )
    assert status == "delivered"

    # The tracker saw the blackhole window open at the failure instant
    # and close by the end of the run.
    holes = [w for w in tracker.path_windows(near.anchor, far.anchor,
                                             addr=far_host)
             if w["status"] == BLACKHOLE]
    assert holes and abs(holes[0]["start"] - fail_at) < 1e-9
    assert holes[-1]["end"] < fail_at + 120.0
    offline = episodes_from_trace(world.sim.trace.records)
    assert _episode_keys(offline) == _episode_keys(tracker.episodes)


def test_stuck_route_expires_via_hold_timer_without_restore(world):
    """Left alone, the dead session's hold timer (90 s) eventually
    fires, the stale routes are flushed, and the internet heals around
    the dead edge (when the graph is 2-connected enough) or at least
    stops black-holing silently."""
    spec = world.spec
    edge = spec.inter_edges[0]
    fail_at = WARMUP + 1.0
    plan = stuck_route_plan(world, edge.a_asn, edge.b_asn, at=fail_at)
    world.experiment.apply_faults(plan)

    world.run(until=fail_at + 60.0)  # < hold_time: still stuck
    near = spec.by_asn[edge.b_asn]
    far = spec.by_asn[edge.a_asn]
    assert world.node(near.anchor).xorp.rib.best(far.prefix) is not None

    world.run(until=fail_at + 150.0)  # hold timer long expired
    sessions = world.ebgp_sessions[
        (min(edge.a_asn, edge.b_asn), max(edge.a_asn, edge.b_asn))
    ]
    assert all(s.state != "Established" for s in sessions)
