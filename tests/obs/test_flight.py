"""Tests for repro.obs.spans + the flight CLI: span propagation across
tunnel encap/decap, exact latency decomposition,
retention policies, golden-trace passivity, and Perfetto determinism."""

import json

import pytest

from repro.net.packet import OpaquePayload, Packet, UDPHeader
from repro.obs import (
    FlightRecorder,
    NULL_RECORDER,
    export_perfetto,
    flight_rows,
)
from repro.obs.flight import run_flights
from repro.sim import Simulator


def _packet():
    return Packet(None, UDPHeader(1000, 2000), OpaquePayload(8))


# ----------------------------------------------------------------------
# Span context propagation (satellite 5a)
# ----------------------------------------------------------------------
def test_packet_span_defaults_to_none():
    assert _packet().span is None


def test_null_recorder_is_the_default_and_inert():
    sim = Simulator()
    assert sim.flight is NULL_RECORDER
    assert not sim.flight.enabled


# ----------------------------------------------------------------------
# Stage-transition tiling
# ----------------------------------------------------------------------
def test_stages_tile_flight_exactly():
    sim = Simulator()
    recorder = FlightRecorder(sim).install()
    packet = _packet()

    sim.at(1.0, lambda: recorder.flight_begin(packet, "probe", node="a",
                                              stage="send"))
    sim.at(1.5, lambda: recorder.stage(packet, "queue", node="a"))
    sim.at(2.25, lambda: recorder.stage(packet, "transit", node="a--b"))
    sim.at(4.0, lambda: recorder.flight_end(packet))
    sim.run()

    (flight,) = recorder.flights()
    assert flight.status == "ok"
    assert flight.duration == 3.0
    stages = flight.stage_durations()
    assert [(n, d) for n, _l, d in stages] == [
        ("send", 0.5), ("queue", 0.75), ("transit", 1.75)]
    # Gap-free: each stage opens when the previous closes.
    assert flight.spans[0].start == flight.start
    for prev, cur in zip(flight.spans, flight.spans[1:]):
        assert cur.start == prev.end
    assert flight.spans[-1].end == flight.end
    assert sum(d for _n, _l, d in stages) == flight.duration
    assert flight.stage_totals() == {"send": 0.5, "queue": 0.75,
                                     "transit": 1.75}


def test_flight_drop_records_reason():
    sim = Simulator()
    recorder = FlightRecorder(sim).install()
    packet = _packet()
    recorder.flight_begin(packet, "probe", node="a")
    recorder.flight_drop(packet, "queue_overflow", node="a")
    (flight,) = recorder.flights()
    assert flight.status == "dropped:queue_overflow"
    # The flight is closed: further stages are no-ops.
    recorder.stage(packet, "late", node="b")
    assert len(flight.spans) == 1


# ----------------------------------------------------------------------
# Retention policies
# ----------------------------------------------------------------------
def _run_flights_with_durations(policy, capacity, durations):
    sim = Simulator()
    recorder = FlightRecorder(sim, capacity=capacity, policy=policy)
    recorder.install()
    for index, duration in enumerate(durations):
        packet = _packet()
        sim.at(10.0 * index, lambda p=packet: recorder.flight_begin(
            p, "probe"))
        sim.at(10.0 * index + duration, lambda p=packet:
               recorder.flight_end(p))
    sim.run()
    return recorder


def test_retention_head_tail_slowest_all():
    durations = [5.0, 1.0, 9.0, 3.0, 7.0]

    tail = _run_flights_with_durations("tail", 2, durations)
    assert [f.duration for f in tail.flights()] == [3.0, 7.0]
    assert tail.flights_evicted == 3

    slowest = _run_flights_with_durations("slowest", 2, durations)
    assert sorted(f.duration for f in slowest.flights()) == [7.0, 9.0]
    assert slowest.flights_evicted == 3
    assert [f.duration for f in slowest.slowest(2)] == [9.0, 7.0]

    # "head" and "all" had no caller and are gone: keeping everything
    # is a capacity that holds the run.
    for gone in ("head", "all"):
        with pytest.raises(ValueError):
            FlightRecorder(Simulator(), policy=gone)
    everything = _run_flights_with_durations("tail", 5, durations)
    assert len(everything.flights()) == 5
    assert everything.flights_evicted == 0
    assert everything.flights_completed == 5


def test_recorder_validates_arguments():
    sim = Simulator()
    with pytest.raises(ValueError):
        FlightRecorder(sim, policy="newest")
    with pytest.raises(ValueError):
        FlightRecorder(sim, capacity=0)


# ----------------------------------------------------------------------
# Control-plane spans + the reroute causality link (Fig 8)
# ----------------------------------------------------------------------
def test_mark_reroute_links_first_staged_packet():
    sim = Simulator()
    recorder = FlightRecorder(sim).install()
    root = recorder.span_begin("ospf.convergence", node="denver")
    fib = recorder.instant("ospf.fib_update", node="denver", parent=root)
    recorder.span_end(root)
    recorder.mark_reroute("denver", fib)

    other = _packet()
    recorder.flight_begin(other, "probe", node="kansascity")
    recorder.stage(other, "hop", node="kansascity")  # wrong node: no link
    packet = _packet()
    recorder.flight_begin(packet, "probe", node="denver")
    recorder.stage(packet, "hop", node="denver")     # arms the instant
    recorder.stage(packet, "hop2", node="denver")    # fires only once

    instants = [s for s in recorder.control_spans()
                if s.name == "reroute.first_packet"]
    assert len(instants) == 1
    (instant,) = instants
    assert instant.parent_id == fib.span_id
    assert instant.trace_id == root.trace_id
    assert instant.meta["flight"] == packet.span.trace_id


def test_control_span_tree_parentage():
    sim = Simulator()
    recorder = FlightRecorder(sim).install()
    root = recorder.span_begin("ospf.convergence", node="r1")
    child = recorder.span_begin("ospf.spf_wait", node="r1", parent=root)
    recorder.span_end(child)
    recorder.span_end(root)
    recorder.span_end(root)  # double-close is a no-op
    spans = recorder.control_spans()
    assert [s.name for s in spans] == ["ospf.spf_wait", "ospf.convergence"]
    assert spans[0].parent_id == root.span_id
    assert spans[0].trace_id == root.trace_id


def test_ospf_failure_emits_convergence_span_tree():
    """Failing a link in the overlay produces the Fig-8 causal chain:
    convergence root -> detection/LSA instants -> SPF -> FIB update."""
    from repro.faults import FaultPlan
    from repro.topologies import PLANETLAB_CONFIGS, build_planetlab

    vini, exp = build_planetlab(5, hogs=0, warmup=12.0,
                                **PLANETLAB_CONFIGS["plvini"])
    recorder = FlightRecorder(vini.sim, capacity=64).install()
    exp.apply_faults(
        FaultPlan("t").fail_link(2.0, "chicago", "newyork", duration=30.0),
        offset=vini.sim.now,
    )
    vini.run(until=vini.sim.now + 20.0)
    names = {s.name for s in recorder.control_spans()}
    assert "ospf.convergence" in names
    assert "ospf.spf_wait" in names
    assert "ospf.spf_recompute" in names
    assert "ospf.fib_update" in names
    assert "ospf.neighbor_down" in names or "ospf.lsa_receive" in names
    # Every non-root span belongs to a convergence tree.
    roots = {s.span_id for s in recorder.control_spans()
             if s.name == "ospf.convergence"}
    for span in recorder.control_spans():
        if span.name != "ospf.convergence":
            assert span.parent_id != 0


# ----------------------------------------------------------------------
# End-to-end: Table-5 ping decomposition (the headline)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def plvini_run():
    return run_flights(config="plvini", count=8, interval=0.1, seed=3,
                       warmup=12.0, loaded=False)


def test_overlay_flight_crosses_tunnel_encap_decap(plvini_run):
    recorder, _ping = plvini_run
    flights = [f for f in recorder.flights() if f.status == "ok"]
    assert flights
    for flight in flights:
        names = [name for name, _node, _d in flight.stage_durations()]
        assert names[0] == "host.send"
        assert "tunnel.encap" in names and "tunnel.decap" in names
        assert "link.transit" in names
        assert "host.echo" in names  # the reply continued the same trace


def test_stage_durations_sum_to_rtt(plvini_run):
    recorder, ping = plvini_run
    flights = [f for f in recorder.flights() if f.status == "ok"]
    rtts = sorted(rtt for _t, _s, rtt in ping.samples)
    assert len(flights) == len(rtts) == 8
    assert sorted(f.duration for f in flights) == rtts
    for flight in flights:
        total = sum(d for _n, _l, d in flight.stage_durations())
        assert abs(total - flight.duration) <= 1e-6  # ISSUE tolerance
        # Stage spans are strictly gap-free, so in practice it is exact.
        assert total == flight.duration


def test_recorder_is_passive_golden_trace(plvini_run):
    """The event stream is byte-identical with the recorder off AND on:
    recording never schedules events or perturbs order."""
    recorder, ping = plvini_run

    def trace_of(install):
        from repro.tools.ping import Ping
        from repro.topologies import PLANETLAB_CONFIGS, build_planetlab

        vini, exp = build_planetlab(3, hogs=0, warmup=12.0,
                                    **PLANETLAB_CONFIGS["plvini"])
        if install:
            FlightRecorder(vini.sim).install()
        src = exp.network.nodes["chicago"]
        dst = exp.network.nodes["washington"].tap_addr
        ping = Ping(src.phys_node, dst, sliver=src.sliver, interval=0.1,
                    count=8).start()
        vini.run(until=vini.sim.now + 8 * 0.1 + 5.0)
        return [(r.time, r.kind, r.fields) for r in vini.sim.trace.records]

    off = trace_of(False)
    on = trace_of(True)
    assert off == on
    # And the instrumented run above saw the same RTTs.
    assert sorted(f.duration for f in recorder.flights()
                  if f.status == "ok") == sorted(
        rtt for _t, _s, rtt in ping.samples)


def test_perfetto_json_same_seed_byte_identical(tmp_path):
    def run(name):
        # The ICMP ident counter is per-simulator, so an in-process
        # rerun matches what two fresh same-seed processes produce.
        recorder, _ = run_flights(config="plvini", count=8, interval=0.1,
                                  seed=3, warmup=12.0, loaded=False)
        path = export_perfetto(flight_rows(recorder), str(tmp_path / name))
        with open(path) as handle:
            return handle.read()

    text = run("a.json")
    assert run("b.json") == text
    payload = json.loads(text)
    events = payload["traceEvents"]
    cats = {e.get("cat") for e in events}
    assert "flight" in cats and "stage" in cats
    # Every event references a declared process.
    pids = {e["pid"] for e in events if e["ph"] == "M"}
    assert all(e["pid"] in pids for e in events)
    # Durations are non-negative microseconds.
    assert all(e.get("dur", 0) >= 0 for e in events)


def test_flight_cli_main(tmp_path, capsys):
    from repro.obs.__main__ import main

    out = str(tmp_path / "trace.json")
    code = main(["flight", "--config", "plvini", "--count", "6",
                 "--seed", "3", "--warmup", "12", "--unloaded",
                 "--slowest", "2", "--export", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "6 transmitted, 6 received" in text
    assert "tunnel.encap" in text
    assert "sum-vs-rtt err 0 us" in text
    with open(out) as handle:
        assert json.load(handle)["traceEvents"]
