"""The traffic plane must not perturb a packet-only run by a byte.

``repro.traffic`` couples into the packet hot path (channel serialize,
queue admission, shaper refill), so the zero-cost-when-disabled claim
is a golden-trace contract, not a code-review judgment: the Fig-8
failover scenario must replay byte-identically with the traffic plane
imported — and even *running*, against its own simulator — as long as
no plane is installed on the measured run.
"""

from tests.faults.test_golden_fig8 import _run, _serialize, _with_plan


def test_fig8_unchanged_with_traffic_plane_loaded():
    baseline = _serialize(_run(_with_plan))

    # Import the whole package and exercise a plane on a *side*
    # simulator — flows, completions, a scheduled arrival, the works.
    from repro.topologies import build_dumbbell
    from repro.traffic import FluidTrafficPlane

    side_vini, _exp = build_dumbbell(pairs=2, seed=77, realtime=False)
    side_plane = FluidTrafficPlane(side_vini)
    side_plane.add_flow("s0", "r0", count=10)
    side_plane.add_flow("s1", "r1", size_bytes=5e4)
    side_vini.sim.schedule(0.5, lambda: side_plane.add_flow(
        "s0", "r1", size_bytes=2e6, count=10))
    side_vini.run(until=5.0)
    assert side_plane.stats["flows_completed"] >= 1

    assert _serialize(_run(_with_plan)) == baseline


def test_uninstalled_coupling_fields_stay_zero():
    """The per-channel coupling attributes exist but stay at their
    float-identity-preserving defaults when no plane is installed."""
    from repro.topologies import build_star

    vini, _exp = build_star(3, bandwidth=20e6, seed=9, realtime=False)
    vini.run(until=1.0)
    for link in vini.links.values():
        for channel in link._channels.values():
            assert channel.fluid_bps == 0.0
            assert channel.fluid_drops == 0
