"""The fluid traffic plane: rates, completions, coupling, determinism.

Everything here runs on small topologies and asserts exact,
deterministic behavior — fair shares to the bit, completions at the
processor-sharing instant, same-seed byte-identical reports.
"""

import json
import random

import pytest

from repro.core import VINI, Experiment
from repro.obs import build_report
from repro.topologies import build_abilene, build_abilene_iias, build_dumbbell, build_star
from repro.topologies.abilene import ABILENE_POPS
from repro.traffic import FluidTrafficPlane
from repro.traffic.plane import HEADROOM
from repro.faults import FaultPlan
from repro.tools import Ping
from tests.traffic.test_plane_golden import installed_coupling, recounted

BOTTLENECK = 10e6
NAN = float("nan")
USABLE = BOTTLENECK * (1.0 - HEADROOM)


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

    def test_finite_elastic_flows_on_the_abilene_mirror_all_finish(self):
        # Finite flows under a plane on the Abilene mirror, which no run
        # exercises: 27 elastic transfers of 0.1-5 MB between random PoPs,
        # started at once after the warm-up. All finish within 10 sim-s;
        # the window holds a few hundred events, so a completion that
        # re-arms at one instant would exhaust the budget, not hang.
        vini, exp = build_abilene_iias(seed=3)
        exp.run(until=40.0)
        sim = vini.sim
        plane = FluidTrafficPlane(exp)
        rng = random.Random(3)
        flows = []
        for _ in range(27):
            src, dst = rng.sample(ABILENE_POPS, 2)
            flows.append(plane.add_flow(src, dst, size_bytes=rng.uniform(1e5, 5e6)))
        events = 0
        while sim.peek() is not None and sim.peek() <= 50.0:
            sim.step()
            events += 1
            assert events < 5000, f"event budget exhausted at t={sim.now!r}"
        assert [flow.active for flow in flows] == [False] * 27
        assert plane.stats["flows_completed"] == 27
        for flow in flows:
            assert flow.served_bytes == pytest.approx(flow.size_bytes, rel=1e-9)

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

    def test_many_marks_in_one_instant_queue_one_solve(self):
        vini, plane = make_dumbbell()
        sim = vini.sim
        vini.run(until=1.0)
        runs, pending = plane.stats["solver_runs"], sim.pending
        flows = [plane.add_flow(f"s{i % 2}", f"r{i % 2}") for i in range(6)]
        for flow in flows[::2]:
            plane.remove_flow(flow)
        solves = [time for time, _seq, fn, _args in sim._heap
                  if fn == plane._solve]
        assert solves == [sim.now]
        assert sim.pending == pending + 1
        vini.run(until=1.5)
        assert plane.stats["solver_runs"] == runs + 1


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

    def test_shaper_clears_when_its_last_class_empties(self):
        vini = VINI(seed=5)
        for name in ("pa", "pb"):
            vini.add_node(name)
        vini.connect("pa", "pb", bandwidth=100e6, delay=0.005)
        vini.install_underlay_routes()
        exp = Experiment(vini, "shaped-pair", realtime=False)
        exp.add_node("a", "pa")
        exp.add_node("b", "pb")
        exp.connect("a", "b", bandwidth=10e6)
        plane = FluidTrafficPlane(exp)
        flow = plane.add_flow("a", "b", demand_bps=1e6)
        vini.run(until=0.1)
        elements = exp.network.nodes["a"].click.elements
        (shaper,) = [el for name, el in elements.items()
                     if name.startswith("shape_")]
        assert shaper._fluid_bps == 1e6
        flow.stop()
        vini.run(until=0.2)
        assert plane.classes == {}
        assert shaper._fluid_bps == 0.0

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
        stats = plane.stats
        assert by_name["traffic.flows_started"]["value"] == stats["flows_started"] == 7
        assert by_name["traffic.solver_runs"]["value"] == stats["solver_runs"] >= 1
        assert (by_name["traffic.solver_iterations"]["value"]
                == stats["solver_iterations"] >= 1)


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


class TestStandingCounts:
    """The plane keeps each channel's flow count standing; every site
    that moves a class's ``count`` or ``blocked`` moves it."""

    def _bottleneck(self, vini, plane):
        link = vini.link_between("rl", "rr")
        return plane._nflows[plane._channel_states[(link.name, "rl")].index]

    def test_add_counts_the_new_flows(self):
        vini, plane = make_dumbbell()
        plane.add_flow("s0", "r0", count=3)
        plane.add_flow("s0", "r0", count=2)  # into the same class
        crowd = plane.add_flow("s1", "r1", count=5)
        assert plane._nflows == recounted(plane)
        assert self._bottleneck(vini, plane) == 10
        vini.run(until=0.1)
        assert crowd.rate_bps == USABLE / 10

    def test_stop_uncounts_the_flows(self):
        vini, plane = make_dumbbell()
        flow = plane.add_flow("s0", "r0")
        mate = plane.add_flow("s1", "r1", count=4)
        vini.sim.schedule(0.5, mate.stop)
        vini.run(until=1.0)
        assert plane._nflows == recounted(plane)
        assert self._bottleneck(vini, plane) == 1
        assert flow.rate_bps == USABLE

    def test_completion_uncounts_the_flows(self):
        vini, plane = make_dumbbell()
        flow = plane.add_flow("s0", "r0")
        done = plane.add_flow("s1", "r1", size_bytes=125_000, count=2)
        vini.run(until=2.0)
        assert not done.active
        assert plane._nflows == recounted(plane)
        assert self._bottleneck(vini, plane) == 1
        assert flow.rate_bps == USABLE

    def test_physical_flap_moves_the_counts_with_the_path(self):
        vini, plane = make_dumbbell()
        flow = plane.add_flow("s0", "r0", count=3)
        link = vini.link_between("rl", "rr")
        seen = {}

        def look(when):
            seen[when] = (list(plane._nflows), recounted(plane))

        vini.sim.schedule(1.0, link.fail)
        vini.sim.schedule(1.5, look, "down")
        vini.sim.schedule(2.0, link.recover)
        vini.run(until=3.0)
        look("up")
        assert seen["down"][0] == seen["down"][1] == [0, 0, 0]
        assert seen["up"][0] == seen["up"][1] == [3, 3, 3]
        assert flow.rate_bps == USABLE / 3

    def test_virtual_link_flap_moves_the_counts_with_blocked(self):
        vini, exp = build_dumbbell(pairs=2, bottleneck=BOTTLENECK,
                                   seed=5, realtime=False)
        plane = FluidTrafficPlane(exp)
        flow = plane.add_flow("rl", "rr", count=4)
        plane.add_flow("s0", "r0")
        exp.apply_faults(FaultPlan().fail_link(1.0, "rl", "rr", duration=1.0))
        seen = {}
        vini.sim.schedule(1.5, lambda: seen.update(
            down=(list(plane._nflows), recounted(plane))))
        vini.run(until=3.0)
        assert seen["down"][0] == seen["down"][1] == [1, 1, 1]
        assert self._bottleneck(vini, plane) == 5
        assert plane._nflows == recounted(plane)
        assert flow.rate_bps == USABLE / 5


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
        dict(demand_bps=NAN), dict(window_bytes=NAN), dict(size_bytes=NAN),
        dict(count=2.5), dict(count=2.0),
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

        vini, exp = build_star(3, seed=seed, name="hybrid-det", realtime=False)
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
        # The failure cuts the class; the second it ran at the full
        # usable bottleneck must be integrated first.
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

    @staticmethod
    def _finite_run(read: bool):
        """60 finite elastic flows on Abilene, with every flow's
        ``served_bytes`` read every 37.1 ms (or the same events, idle)."""
        vini = build_abilene(seed=5)
        plane = FluidTrafficPlane(vini)
        sim = vini.sim
        rng = random.Random(5)
        flows, stream = [], []

        def start(src, dst, size):
            flows.append(plane.add_flow(src, dst, size_bytes=size))

        for _ in range(60):
            src, dst = rng.sample(ABILENE_POPS, 2)
            size = rng.uniform(1e5, 2e6)
            sim.schedule(rng.uniform(0.0, 2.0), start, src, dst, size)
        solve = plane._solve

        def recording():
            solve()
            stream.append(repr((sim.now, [
                (cls.key, cls.rate_bps, cls.served, cls.blocked, cls.count)
                for cls in plane._ordered])))

        plane._solve = recording

        def tick():
            if read:
                for flow in flows:
                    flow.served_bytes
            sim.schedule(sim.now + 0.0371, tick)

        sim.schedule(0.0371, tick)
        vini.run(until=30.0)
        assert len(flows) == 60 and all(not flow.active for flow in flows)
        return [flow.end for flow in flows], stream

    def test_reading_served_bytes_does_not_change_the_run(self):
        # A read used to cut the class's service integral at the read
        # instant, so the float sum it is built of, and the instants
        # the flows complete at, depended on who was looking.
        assert self._finite_run(read=True) == self._finite_run(read=False)

    def test_completed_flow_reports_its_size(self):
        vini, plane = make_dumbbell()
        done = plane.add_flow("s0", "r0", demand_bps=1e6, size_bytes=125_000)
        mate = plane.add_flow("s0", "r0", demand_bps=1e6)
        vini.run(until=3.0)
        assert not done.active
        assert mate.served_bytes == pytest.approx(375_000)
        assert done.served_bytes == pytest.approx(125_000)


def _triangle():
    """A 5 ms ``a--b`` link, plus the longer way ``a--c--b``."""
    vini = VINI(seed=5)
    for name in "abc":
        vini.add_node(name)
    vini.connect("a", "b", bandwidth=BOTTLENECK, delay=0.005)
    vini.connect("a", "c", bandwidth=BOTTLENECK, delay=0.004)
    vini.connect("c", "b", bandwidth=BOTTLENECK, delay=0.004)
    vini.install_underlay_routes()
    exp = Experiment(vini, "triangle", realtime=False)
    exp.add_node("va", "a")
    exp.add_node("vb", "b")
    exp.connect("va", "vb")
    return vini, exp


@pytest.mark.parametrize("vlink_flap", [False, True])
def test_fluid_and_packets_are_cut_together_and_come_back_together(vlink_flap):
    """The underlay is static: when ``a--b`` fails, the fluid between
    its ends is cut as the pings are, not carried round through ``c``.
    A virtual link that recovers while a physical hop under it is still
    down leaves its class cut."""
    vini, exp = _triangle()
    sim = vini.sim
    plane = FluidTrafficPlane(exp)
    flows = [plane.add_flow("a", "b")]
    if vlink_flap:
        flows.append(plane.add_flow("va", "vb"))
        vlink = exp.network.link_between("va", "vb")
        sim.schedule(1.5, vlink.fail)
        sim.schedule(2.0, vlink.recover)
    ping = Ping(vini.nodes["a"], vini.nodes["b"].address, interval=0.1,
                count=50).start()
    link = vini.link_between("a", "b")
    sim.schedule(1.05, link.fail)
    sim.schedule(3.0, link.recover)
    probes = []
    sim.schedule(2.5, lambda: probes.append([f.rate_bps for f in flows]))
    vini.run(until=5.0)
    assert probes == [[0.0] * len(flows)]
    answered = [sent for sent, _seq, _rtt in ping.samples]
    assert not [sent for sent in answered if 1.05 <= sent < 3.0]
    assert [sent for sent in answered if sent >= 3.0]
    # Back at the fair share, less what the pings are measured to use.
    assert all(flow.rate_bps == pytest.approx(USABLE / len(flows), rel=1e-3)
               for flow in flows)
