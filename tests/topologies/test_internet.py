"""The internet-in-a-slice zoo: generation, embedding, convergence.

Section 2.1's bar: realistic multi-AS structure (tiered
transit/customer + peer graph, per-AS IGP areas, eBGP with Gao-Rexford
policy) that *replays* — the same seed must rebuild the identical
internet and converge to the identical routing state. The small-zoo
tests here run in tier 1; the 200-AS / ~1000-router build is gated
behind ``REPRO_SCALE_TESTS=1`` (it rides the tier-2 bench-smoke lane).
"""

import json
import os

import pytest

from repro.net.addr import IPv4Address
from repro.routing.policy import PEER, PROVIDER, is_valley_free
from repro.sim.engine import Simulator
from repro.topologies.internet import (
    STUB,
    TIER1,
    build_internet,
    generate_internet_spec,
)

SMALL = dict(n_as=6, seed=3)
CONVERGE_AT = 60.0


def _spec(n_as, seed, **kwargs):
    return generate_internet_spec(n_as, Simulator(seed=seed).rng, **kwargs)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def test_spec_replays_per_seed():
    first = _spec(24, 11)
    again = _spec(24, 11)
    other = _spec(24, 12)
    assert first.signature() == again.signature()
    assert first.signature() != other.signature()


def test_spec_structure_is_a_tiered_internet():
    spec = _spec(40, 5)
    tier1 = [a for a in spec.ases if a.tier == TIER1]
    stubs = [a for a in spec.ases if a.tier == STUB]
    assert tier1 and stubs
    # The tier-1 core is a full peer clique.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            assert spec.rel_of(a.asn, b.asn) == PEER
    # Every non-tier-1 AS bought transit from someone (has a provider).
    for a in spec.ases:
        if a.tier == TIER1:
            continue
        providers = [
            b.asn for b in spec.ases
            if spec.rel_of(a.asn, b.asn) == PROVIDER
        ]
        assert providers, f"as{a.asn} ({a.tier}) has no provider"
    # Border routers belong to the ASes they stitch.
    for e in spec.inter_edges:
        assert e.a_router in spec.by_asn[e.a_asn].routers
        assert e.b_router in spec.by_asn[e.b_asn].routers


def test_spec_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        _spec(1, 0)


# ----------------------------------------------------------------------
# Embedding: the small zoo, end to end
# ----------------------------------------------------------------------
def test_small_zoo_converges_and_is_valley_free():
    world = build_internet(**SMALL)
    spec = world.spec
    world.run(until=CONVERGE_AT)
    assert world.converged_routers() == spec.n_routers
    # Every anchor holds a valley-free path to every other AS, ending
    # at the true origin.
    for a in spec.ases:
        for b in spec.ases:
            if a.asn == b.asn:
                continue
            path = world.best_as_path(a.anchor, b.asn)
            assert path is not None
            assert path[0] == a.asn and path[-1] == b.asn
            assert is_valley_free(path, spec.rel_of), (
                f"valley in {path} (as{a.asn} -> as{b.asn})"
            )


def test_same_seed_rebuilds_identical_routing_state():
    one = build_internet(**SMALL)
    two = build_internet(**SMALL)
    assert one.spec.signature() == two.spec.signature()
    one.run(until=CONVERGE_AT)
    two.run(until=CONVERGE_AT)
    assert one.converged_routers() == one.spec.n_routers
    assert one.fib_checksum() == two.fib_checksum()


def test_overlay_walks_reach_remote_prefixes():
    from repro.faults.invariants import walk_overlay_path

    world = build_internet(**SMALL)
    spec = world.spec
    world.run(until=CONVERGE_AT)
    nodes = world.network.nodes
    src = spec.ases[0]
    for dst in spec.ases[1:]:
        addr = str(IPv4Address(int(dst.prefix.network) + 1))
        status, path = walk_overlay_path(
            world.network, nodes[src.anchor], nodes[dst.anchor], addr=addr
        )
        assert status == "delivered", (src.anchor, dst.anchor, status, path)


# ----------------------------------------------------------------------
# Scale: the 200-AS / ~1000-router internet (tier-2 lane)
# ----------------------------------------------------------------------
@pytest.mark.tier2_bench_smoke
@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_TESTS") != "1",
    reason="set REPRO_SCALE_TESTS=1 to run the 200-AS build",
)
def test_200_as_internet_builds_converges_and_replays():
    from repro.obs import MetricsRegistry
    from repro.obs.report import build_report
    from repro.obs.routing import ConvergenceTracker
    from repro.topologies.internet import stuck_route_plan

    def build_and_report():
        old = MetricsRegistry.default_enabled
        MetricsRegistry.default_enabled = False  # keep the JSON stable
        try:
            world = build_internet(n_as=200, seed=1)
        finally:
            MetricsRegistry.default_enabled = old
        spec = world.spec
        assert spec.n_routers >= 900, spec.n_routers
        tracker = ConvergenceTracker(world.experiment).install()
        world.run(until=120.0)
        assert world.converged_routers() == spec.n_routers
        # One controlled episode so the report's tracker block is
        # non-trivial.
        edge = spec.inter_edges[0]
        plan = stuck_route_plan(
            world, edge.a_asn, edge.b_asn, at=121.0, duration=10.0
        )
        world.experiment.apply_faults(plan)
        world.run(until=260.0)
        assert world.converged_routers() == spec.n_routers
        assert tracker.episodes
        report = build_report(
            world.sim, name="internet-200", tracker=tracker,
            meta={"n_as": 200, "routers": spec.n_routers},
        )
        return spec.signature(), world.fib_checksum(), report.to_json()

    sig1, fib1, json1 = build_and_report()
    sig2, fib2, json2 = build_and_report()
    assert sig1 == sig2
    assert fib1 == fib2
    assert json1 == json2  # byte-identical replay, report included
    assert json.loads(json1)["convergence"]["episodes"]
