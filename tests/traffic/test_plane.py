"""The fluid traffic plane: rates, completions, coupling, determinism.

Everything here runs on small topologies and asserts exact,
deterministic behavior — fair shares to the bit, completions at the
processor-sharing instant, same-seed byte-identical reports.
"""

import json

import pytest

from repro.obs import build_report
from repro.topologies import build_dumbbell, build_star
from repro.traffic import FluidTrafficPlane
from tests.traffic.test_plane_golden import installed_coupling

BOTTLENECK = 10e6
USABLE = BOTTLENECK * 0.98  # headroom=0.02 default


def make_dumbbell(seed=5):
    vini, exp = build_dumbbell(pairs=2, bottleneck=BOTTLENECK,
                               seed=seed, realtime=False)
    return vini, FluidTrafficPlane(vini)


class TestRates:
    def test_elastic_flows_split_the_bottleneck(self):
        vini, plane = make_dumbbell()
        f0 = plane.add_flow("s0", "r0")
        f1 = plane.add_flow("s1", "r1")
        vini.run(until=0.1)
        assert f0.rate_bps == pytest.approx(USABLE / 2)
        assert f1.rate_bps == pytest.approx(USABLE / 2)

    def test_demand_cap_is_respected(self):
        vini, plane = make_dumbbell()
        small = plane.add_flow("s0", "r0", demand_bps=1e6)
        big = plane.add_flow("s1", "r1")
        vini.run(until=0.1)
        assert small.rate_bps == pytest.approx(1e6)
        assert big.rate_bps == pytest.approx(USABLE - 1e6)

    def test_window_cap_uses_path_rtt(self):
        vini, plane = make_dumbbell()
        flow = plane.add_flow("s0", "r0", window_bytes=16384)
        vini.run(until=0.1)
        # Path delays: 0.002 + 0.01 + 0.002, RTT double that.
        rtt = 2 * (0.002 + 0.01 + 0.002)
        assert flow.rate_bps == pytest.approx(16384 * 8 / rtt)

    def test_count_aggregates_share_per_flow(self):
        vini, plane = make_dumbbell()
        crowd = plane.add_flow("s0", "r0", count=1000)
        vini.run(until=0.1)
        assert crowd.rate_bps == pytest.approx(USABLE / 1000)
        assert plane.stats["flows_active"] == 1000
        assert plane.stats["classes"] == 1

    def test_served_bytes_advances_between_events(self):
        vini, plane = make_dumbbell()
        flow = plane.add_flow("s0", "r0")
        vini.run(until=2.0)
        # One elastic flow alone: the whole usable bottleneck for ~2 s.
        assert flow.served_bytes == pytest.approx(
            USABLE / 8 * 2.0, rel=0.05
        )


class TestCompletions:
    def test_finite_flow_completes_at_the_fluid_instant(self):
        vini, plane = make_dumbbell()
        flow = plane.add_flow("s0", "r0", size_bytes=125_000)
        vini.run(until=5.0)
        assert not flow.active
        # 125 kB at the full usable bottleneck.
        assert flow.end == pytest.approx(125_000 * 8 / USABLE, rel=1e-6)
        assert plane.stats["flows_completed"] == 1

    def test_completion_reflects_rate_changes(self):
        vini, plane = make_dumbbell(seed=6)
        flow = plane.add_flow("s0", "r0", size_bytes=125_000)
        # A competitor arrives halfway through the transfer.
        t_half = 125_000 * 8 / USABLE / 2
        vini.sim.schedule(t_half, lambda: plane.add_flow("s1", "r1"))
        vini.run(until=5.0)
        # First half at full rate, second half at half rate.
        expected = t_half + (125_000 / 2) * 8 / (USABLE / 2)
        assert flow.end == pytest.approx(expected, rel=1e-3)

    def test_completion_below_clock_resolution_does_not_livelock(self):
        # At t ~ 29 s the clock's ulp (3.6e-15 s) is coarser than the
        # wait for the last 1e-8 bytes of this flow, so the completion
        # event used to re-arm at the same instant forever.
        vini, plane = make_dumbbell()
        sim = vini.sim
        flows = []
        sim.schedule(27.39, lambda: flows.append(
            plane.add_flow("s0", "r0", size_bytes=2_050_724)))
        for _ in range(1000):  # event budget: the run needs a few dozen
            if sim.peek() is None or sim.peek() > 60.0:
                break
            sim.step()
        else:
            pytest.fail(f"event budget exhausted at t={sim.now!r}")
        (flow,) = flows
        assert not flow.active
        assert flow.end == pytest.approx(
            27.39 + 2_050_724 * 8 / USABLE, rel=1e-9)
        assert plane.stats["flows_completed"] == 1

    def test_stopped_flow_frees_its_share(self):
        vini, plane = make_dumbbell()
        doomed = plane.add_flow("s0", "r0")
        keeper = plane.add_flow("s1", "r1")
        vini.sim.schedule(1.0, doomed.stop)
        vini.run(until=2.0)
        assert not doomed.active
        assert keeper.rate_bps == pytest.approx(USABLE)
        assert plane.stats["flows_active"] == 1

    def test_solves_stay_rare(self):
        # The whole scenario above needs a handful of solves — one per
        # demand change, never per-packet or per-tick.
        vini, plane = make_dumbbell()
        plane.add_flow("s0", "r0", size_bytes=125_000)
        plane.add_flow("s1", "r1")
        vini.run(until=5.0)
        assert plane.stats["solver_runs"] <= 4


class TestCoupling:
    def test_fluid_occupancy_lands_on_the_channel(self):
        vini, plane = make_dumbbell()
        plane.add_flow("s0", "r0")
        vini.run(until=0.1)
        link = vini.link_between("rl", "rr")
        sender = next(
            iface for iface in link.endpoints if iface.node.name == "rl"
        )
        channel = link._channels[sender]
        assert channel.fluid_bps == pytest.approx(USABLE)
        util = plane.utilization()[(link.name, "rl")]
        assert util == pytest.approx(0.98)

    def test_channel_clears_when_flows_stop(self):
        vini, plane = make_dumbbell()
        flow = plane.add_flow("s0", "r0")
        vini.sim.schedule(0.5, flow.stop)
        vini.run(until=1.0)
        link = vini.link_between("rl", "rr")
        assert all(ch.fluid_bps == 0.0 for ch in link._channels.values())

    def test_link_failure_zeroes_rates_and_recovery_restores(self):
        vini, plane = make_dumbbell()
        flow = plane.add_flow("s0", "r0")
        link = vini.link_between("rl", "rr")
        vini.sim.schedule(1.0, link.fail)
        vini.sim.schedule(2.0, link.recover)

        probes = {}
        vini.sim.schedule(1.5, lambda: probes.update(down=flow.rate_bps))
        vini.run(until=3.0)
        assert probes["down"] == 0.0
        assert flow.rate_bps == pytest.approx(USABLE)

    def test_metrics_registry_sees_the_plane(self):
        vini, plane = make_dumbbell()
        plane.add_flow("s0", "r0", count=7)
        vini.run(until=0.1)
        collected = vini.sim.metrics.collect()
        by_name = {m["name"]: m for m in collected}
        assert by_name["traffic.flows_active"]["value"] == 7
        assert by_name["traffic.solver_runs"]["value"] >= 1
        assert "traffic.link_fluid_util" in by_name


class TestRecoupling:
    """A solve leaves a channel's coupling alone only while *every*
    input of ``_apply_channel`` stands still, not just the load."""

    LOAD = 9e6  # util 0.9: past the loss threshold, deep in the delay curve

    def _loaded_bottleneck(self):
        vini, plane = make_dumbbell()
        plane.add_flow("s0", "r0", demand_bps=self.LOAD)
        vini.run(until=0.1)
        link = vini.link_between("rl", "rr")
        state = plane._channel_states[(link.name, "rl")]
        assert state.coupled[0] == self.LOAD
        assert state.channel._fluid_loss > 0.0
        return vini, plane, link, state

    def _solve_again(self, vini, plane, state):
        """Another solve that leaves the rl -> rr load where it was."""
        runs = plane.stats["solver_runs"]
        plane.add_flow("r1", "s1", demand_bps=1e5)  # the other direction
        vini.run(until=vini.sim.now + 0.1)
        assert plane.stats["solver_runs"] == runs + 1
        assert state.coupled[0] == self.LOAD
        held = installed_coupling(state)
        plane._apply_channel(state, self.LOAD)  # the unconditional answer
        assert installed_coupling(state) == held
        return held

    def test_unchanged_inputs_are_not_reinstalled(self, monkeypatch):
        vini, plane, _link, state = self._loaded_bottleneck()
        before = installed_coupling(state)
        applied = []
        apply = plane._apply_channel
        monkeypatch.setattr(plane, "_apply_channel",
                            lambda st, load: applied.append(st) or apply(st, load))
        plane.add_flow("r1", "s1", demand_bps=1e5)
        vini.run(until=0.2)
        assert len(applied) == 3 and state not in applied  # r1 -> s1's hops
        assert installed_coupling(state) == before

    def test_link_bandwidth_change_recouples(self):
        vini, plane, link, state = self._loaded_bottleneck()
        before = installed_coupling(state)
        link.bandwidth = 20e6
        after = self._solve_again(vini, plane, state)
        assert after != before
        assert state.channel._fluid_bw == 20e6 - self.LOAD
        assert state.channel._fluid_loss == 0.0  # util 0.45

    def test_link_queue_change_recouples(self):
        vini, plane, link, state = self._loaded_bottleneck()
        assert state.channel._fluid_reserved == int(link.queue_bytes * 0.9)
        link.queue_bytes *= 2
        self._solve_again(vini, plane, state)
        assert state.channel._fluid_reserved == int(link.queue_bytes * 0.9)

    @pytest.mark.parametrize("knob,value", [("loss_threshold", 0.95),
                                            ("max_loss", 0.25)])
    def test_loss_ramp_change_recouples(self, knob, value):
        vini, plane, _link, state = self._loaded_bottleneck()
        loss = state.channel._fluid_loss
        setattr(plane, knob, value)
        self._solve_again(vini, plane, state)
        assert state.channel._fluid_loss == (0.0 if knob == "loss_threshold"
                                             else loss / 2)

    def test_flap_restores_the_coupling(self):
        # load -> 0 -> the same load: the second change is a change.
        vini, plane, _link, state = self._loaded_bottleneck()
        before = installed_coupling(state)
        (flow,) = plane.flows.values()
        flow.stop()
        vini.run(until=0.2)
        assert installed_coupling(state) == (0.0, 0.0, 0.0, 0.0, 0, 0.0)
        plane.add_flow("s0", "r0", demand_bps=self.LOAD)
        vini.run(until=0.3)
        assert installed_coupling(state) == before


class TestAddFlowRejects:
    def test_unknown_endpoint_leaves_nothing_behind(self):
        vini, plane = make_dumbbell()
        fresh = plane.stats
        for _ in range(2):  # the retry used to find the half-built class
            with pytest.raises(KeyError, match="nosuch"):
                plane.add_flow("nosuch", "r0", demand_bps=1e6)
            with pytest.raises(KeyError, match="nosuch"):
                plane.add_flow("s0", "nosuch", demand_bps=1e6)
        assert plane.classes == {} and plane._ordered == []
        assert plane.flows == {} and not plane._solve_pending
        assert plane.stats == fresh
        assert plane.add_flow("s0", "r0").fid == 1  # no fid was spent

    @pytest.mark.parametrize("bad", [
        dict(demand_bps=-5e8), dict(window_bytes=-3), dict(window_bytes=0),
        dict(size_bytes=0), dict(size_bytes=-1), dict(count=0),
    ])
    def test_out_of_range_demand_is_a_value_error(self, bad):
        vini, plane = make_dumbbell()
        with pytest.raises(ValueError, match=next(iter(bad))):
            plane.add_flow("s0", "r0", **bad)
        assert plane.stats["classes"] == 0 and plane.flows == {}
        plane.add_flow("s0", "r0", demand_bps=0.0)  # zero demand is a demand


class TestMatrixAndReport:
    def test_report_carries_a_traffic_section(self):
        vini, plane = make_dumbbell()
        plane.add_flow("s0", "r0", count=3)
        vini.run(until=0.5)
        report = build_report(vini.sim, name="hybrid", traffic=plane)
        section = report.data["traffic"]
        assert section["flows"]["active"] == 3
        assert section["solver"]["runs"] >= 1
        assert any(row["util"] > 0 for row in section["links"])
        markdown = report.to_markdown()
        assert "Fluid link occupancy" in markdown


class TestDeterminism:
    """Same seed => the same hybrid simulation, byte for byte.

    Packet ``uid``s and ping ``ident``s come from process-global
    counters (fresh per OS process, so cross-process replays — the real
    reproducibility contract — match exactly); running twice in one
    test process they keep counting, so the serializers below mask
    them and nothing else.
    """

    @staticmethod
    def _hybrid_run(seed):
        """A star overlay with fluid background and a packet probe."""
        import re

        from repro.tools import Ping

        vini, exp = build_star(3, bandwidth=20e6, seed=seed,
                               name="hybrid-det", realtime=False)
        exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
        exp.run(until=20.0)
        plane = FluidTrafficPlane(exp)
        leaf0 = exp.network.nodes["leaf0"]
        hub = exp.network.nodes["hub"]
        Ping(leaf0.phys_node, hub.tap_addr, sliver=leaf0.sliver,
             interval=0.25, count=20).start()
        start = vini.sim.now
        vini.sim.schedule(start + 1.0, lambda: plane.add_flow(
            "leaf1", "leaf0", demand_bps=50e3, count=500))
        vini.sim.schedule(start + 2.0, lambda: plane.add_flow(
            "leaf2", "leaf0", size_bytes=2e6, count=50))
        vini.sim.schedule(start + 3.0, lambda: plane.add_flow(
            "leaf1", "hub", demand_bps=1e6, count=10))
        vini.run(until=start + 8.0)
        report = build_report(vini.sim, name="hybrid", traffic=plane)
        serialized = json.dumps(report.data, sort_keys=True, default=str)
        serialized = re.sub(r'"ident": \d+', '"ident": N', serialized)
        trace = "\n".join(
            f"{r.time:.9f} {r.kind} "
            f"{sorted(i for i in r.fields.items() if i[0] != 'uid')!r}"
            for r in vini.sim.trace.records
        )
        return serialized, trace

    def test_same_seed_hybrid_runs_are_byte_identical(self):
        report_a, trace_a = self._hybrid_run(seed=21)
        report_b, trace_b = self._hybrid_run(seed=21)
        assert report_a == report_b
        assert trace_a == trace_b

    def test_different_seed_changes_the_run(self):
        _report_a, trace_a = self._hybrid_run(seed=21)
        _report_b, trace_b = self._hybrid_run(seed=22)
        assert trace_a != trace_b


class TestServiceAccounting:
    """``served_bytes`` is an integral: it must neither lose an interval
    nor keep growing after the flow has left."""

    def test_partitioning_link_failure_keeps_service_earned_before_it(self):
        # The re-path on failure marks the class blocked; the second it
        # ran at the full usable bottleneck must be integrated first.
        vini, plane = make_dumbbell()
        flow = plane.add_flow("s0", "r0")
        vini.sim.schedule(1.0, vini.link_between("rl", "rr").fail)
        vini.run(until=1.5)
        assert flow.rate_bps == 0.0
        assert flow.served_bytes == pytest.approx(USABLE / 8 * 1.0)

    @pytest.mark.parametrize("stopped_first", [True, False])
    def test_stopped_flow_stops_receiving(self, stopped_first):
        # Two flows of one class at 1 Mb/s each; one leaves at t=1. Its
        # figure must not move when the class (a mate's read, a solve)
        # advances afterwards, whichever of the two is read first.
        vini, plane = make_dumbbell()
        doomed = plane.add_flow("s0", "r0", demand_bps=1e6)
        mate = plane.add_flow("s0", "r0", demand_bps=1e6)
        assert doomed._cls is mate._cls
        vini.sim.schedule(1.0, doomed.stop)
        vini.run(until=1.0)
        assert doomed.served_bytes == pytest.approx(125_000)
        vini.run(until=3.0)
        reads = {}
        for flow in ((doomed, mate) if stopped_first else (mate, doomed)):
            reads[flow.fid] = flow.served_bytes
        assert reads[doomed.fid] == pytest.approx(125_000)
        assert reads[mate.fid] == pytest.approx(375_000)

    def test_completed_flow_reports_its_size(self):
        vini, plane = make_dumbbell()
        done = plane.add_flow("s0", "r0", demand_bps=1e6, size_bytes=125_000)
        mate = plane.add_flow("s0", "r0", demand_bps=1e6)
        vini.run(until=3.0)
        assert not done.active
        assert mate.served_bytes == pytest.approx(375_000)
        assert done.served_bytes == pytest.approx(125_000)


def test_route_graph_is_built_once_per_topology_epoch(monkeypatch):
    vini, plane = make_dumbbell()
    builds = []
    graph = vini._graph
    monkeypatch.setattr(vini, "_graph", lambda: builds.append(1) or graph())
    for src, dst in (("s0", "r0"), ("s1", "r1"), ("s0", "r1"), ("r0", "s1")):
        plane.add_flow(src, dst)
    assert len(builds) == 1
    link = vini.link_between("s0", "rl")
    vini.sim.schedule(1.0, link.fail)  # every class re-paths
    vini.sim.schedule(2.0, link.recover)
    vini.run(until=3.0)
    assert len(builds) == 3
    assert all(flow.rate_bps > 0.0 for flow in plane.flows.values())
