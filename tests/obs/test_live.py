"""Tests for repro.obs.live: the live run observatory.

Three contracts:

* the JSONL feed holds simulation state only: same seed =>
  byte-identical feed;
* an installed monitor adds no per-event cost: its snapshots are
  ordinary periodic sim events, and the engine's dispatch loop polls
  nothing on its behalf;
* the streaming flight exporter (FlightStream) writes the *complete*
  record while in-memory retention stays under the configured ceiling.
"""

import json
import sys

import pytest

from repro.net.packet import OpaquePayload, Packet, UDPHeader
from repro.obs import (
    FlightRecorder,
    FlightStream,
    LiveMonitor,
    PeriodicSampler,
)
from repro.obs.live import FEED_SCHEMA
from repro.sim import PeriodicTimer, Simulator
from repro.tools import IperfTCPClient, IperfTCPServer
from repro.topologies import build_deter


def _packet():
    return Packet(None, UDPHeader(1000, 2000), OpaquePayload(8))


# ----------------------------------------------------------------------
# Monitor: probes, lifecycle, cost
# ----------------------------------------------------------------------
def test_monitor_is_a_sampler_of_its_probes(tmp_path):
    """The monitor is the one periodic snapshotter with a feed on top:
    its probes are sampler series, one point per feed row."""
    sim = Simulator()
    counter = sim.metrics.counter("n")
    PeriodicTimer(sim, 0.5, counter.inc)
    monitor = LiveMonitor(sim, feed=str(tmp_path / "live.jsonl"))
    assert isinstance(monitor, PeriodicSampler)
    monitor.watch("n", metric=counter).install()
    sim.run(until=2.0)
    monitor.stop()
    rows = [json.loads(line)
            for line in (tmp_path / "live.jsonl").read_text().splitlines()]
    assert [[row["t"], row["probes"]["n"]] for row in rows[1:]] == [
        list(point) for point in monitor.series("n")]
    assert monitor.delta("n", 0.0, 2.0) == \
        rows[-1]["probes"]["n"] - rows[1]["probes"]["n"]


def test_monitor_validation(tmp_path):
    sim = Simulator()
    feed = str(tmp_path / "live.jsonl")
    with pytest.raises(ValueError):
        LiveMonitor(sim, interval=0.0, feed=feed)
    with pytest.raises(TypeError):
        LiveMonitor(sim)  # the feed is what a monitor adds to a sampler
    monitor = LiveMonitor(sim, feed=feed).watch("x", fn=lambda: 1)
    with pytest.raises(ValueError):
        monitor.watch("x", fn=lambda: 2)  # duplicate probe key


def test_jsonl_feed_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "live.jsonl"
    LiveMonitor(Simulator(), feed=str(path)).install().stop()
    assert json.loads(path.read_text().splitlines()[0])["schema"] == \
        FEED_SCHEMA


def test_feed_header_and_snapshot_shape(tmp_path):
    sim = Simulator(seed=7)
    path = tmp_path / "live.jsonl"
    monitor = LiveMonitor(sim, interval=1.0, feed=str(path))
    monitor.watch("answer", fn=lambda: 42)
    monitor.install()
    sim.run(until=2.5)
    monitor.stop(final=True)
    text = path.read_text()
    assert text.splitlines()[1].startswith('{"events": ')  # sorted keys
    lines = [json.loads(line) for line in text.splitlines()]
    header, rows = lines[0], lines[1:]
    assert header == {"schema": FEED_SCHEMA, "name": "live",
                      "interval": 1.0, "seed": 7}
    # Anchor at install, t=1, t=2, final at stop: sim-keyed, wall-free.
    assert [row["t"] for row in rows] == [0.0, 1.0, 2.0, 2.5]
    assert [row["i"] for row in rows] == [0, 1, 2, 3]
    for row in rows:
        assert set(row) == {"i", "t", "events", "pending", "probes"}
        assert row["probes"] == {"answer": 42}
    assert monitor.snapshots == 4


def test_monitor_stop_is_idempotent_and_unhooks_the_engine(tmp_path):
    sim = Simulator()
    monitor = LiveMonitor(sim, feed=str(tmp_path / "live.jsonl")).install()
    assert sim.pending == 1  # the periodic snapshot event
    monitor.stop()
    assert sim.pending == 0
    before = monitor.snapshots
    monitor.stop()  # second stop: no extra final snapshot
    assert monitor.snapshots == before


def test_a_running_monitor_keeps_its_feed(tmp_path):
    """``install`` on a running monitor is a no-op and ``start`` refuses:
    neither truncates the feed it is writing."""
    path = tmp_path / "live.jsonl"
    monitor = LiveMonitor(Simulator(), feed=str(path)).install()
    assert monitor.install() is monitor
    with pytest.raises(RuntimeError):
        monitor.start()
    monitor.stop()
    assert len(path.read_text().splitlines()) == 3  # header, anchor, final


def test_as_dict_reports_snapshots_and_alarms(tmp_path):
    sim = Simulator()
    monitor = LiveMonitor(sim, interval=0.5,
                          feed=str(tmp_path / "live.jsonl")).install()
    sim.run(until=1.0)
    monitor.stop()
    section = monitor.as_dict()
    assert section["name"] == "live" and section["interval"] == 0.5
    assert section["snapshots"] == monitor.snapshots
    assert set(section) == {"name", "interval", "snapshots"}


def test_build_report_renders_live_section(tmp_path):
    from repro.obs.report import build_report

    sim = Simulator()
    monitor = LiveMonitor(sim, interval=1.0,
                          feed=str(tmp_path / "live.jsonl")).install()
    sim.run(until=2.0)
    monitor.stop()
    report = build_report(sim, name="t", monitor=monitor)
    assert report.data["live"]["snapshots"] == monitor.snapshots
    assert "## Live monitor" in report.to_markdown()


def _noop() -> None:
    return None


def _dispatch_cost(events: int, feed=None):
    """What ``run()`` does dispatching ``events`` no-op events, all inside
    one 10 s snapshot interval: the calls (Python and C) it makes, and
    the lines of ``Simulator.run`` itself it executes (a hook polled on
    a stride longer than the run makes no call, but costs lines). With
    a ``feed`` path the run is monitored."""
    sim = Simulator()
    if feed is not None:
        LiveMonitor(sim, interval=10.0, feed=feed).install()
    for i in range(events):
        sim.schedule(i * 1e-4, _noop)
    calls = lines = 0

    def count_calls(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    def count_lines(_frame, event, _arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_lines

    run = Simulator.run.__code__
    sys.setprofile(count_calls)
    sys.settrace(lambda frame, _event, _arg:
                 count_lines if frame.f_code is run else None)
    try:
        sim.run(until=5.0)
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return calls, lines


def test_installed_monitor_adds_no_per_event_cost(gc_paused, tmp_path):
    """Between two snapshots a monitor does nothing at all: what a
    monitored run does beyond a bare one does not grow with the events
    dispatched, so any engine-polled hook (however strided) fails this."""
    extra = []
    for events in (5_000, 10_000):
        calls, lines = _dispatch_cost(events)
        assert calls > events and lines > events
        more_calls, more_lines = _dispatch_cost(
            events, feed=str(tmp_path / f"live-{events}.jsonl"))
        extra.append((more_calls - calls, more_lines - lines))
    assert extra[0] == extra[1]


# ----------------------------------------------------------------------
# Feed determinism: same seed => byte-identical
# ----------------------------------------------------------------------
def _deter_feed(seed: int, path) -> str:
    vini = build_deter(seed=seed)
    monitor = LiveMonitor(vini.sim, interval=0.25, feed=str(path))
    monitor.watch_engine()
    monitor.install()
    server = IperfTCPServer(vini.nodes["sink"])
    IperfTCPClient(
        vini.nodes["src"], vini.nodes["sink"].address,
        streams=4, duration=0.5, server=server,
    ).start()
    vini.run(until=1.0)
    monitor.stop(final=True)
    return path.read_text()


@pytest.fixture(scope="module")
def seed11_feed(tmp_path_factory):
    """One seed-11 run, shared by the two tests below: each compares it
    with a run of its own."""
    return _deter_feed(11, tmp_path_factory.mktemp("feed") / "live.jsonl")


def test_same_seed_live_feed_is_byte_identical(seed11_feed, tmp_path):
    """Snapshot selection (sim-time cadence) and content (sim state
    only) are both sim-keyed, so a second run writes the same bytes."""
    first = seed11_feed
    second = _deter_feed(11, tmp_path / "live.jsonl")
    assert first == second
    rows = [json.loads(line) for line in first.splitlines()]
    assert rows[0]["schema"] == FEED_SCHEMA
    assert len(rows) > 4  # header + anchor + periodic + final
    assert rows[-1]["t"] == 1.0
    # Engine probes made it into every snapshot.
    assert "sim.heap_entries" in rows[1]["probes"]


def test_different_seed_changes_feed_content(seed11_feed, tmp_path):
    b = _deter_feed(12, tmp_path / "live.jsonl")
    assert seed11_feed != b  # seed lands in the header and events differ


# ----------------------------------------------------------------------
# Streaming flight export: complete trace, bounded memory
# ----------------------------------------------------------------------
def test_flight_stream_writes_complete_trace_under_memory_ceiling(tmp_path):
    path = str(tmp_path / "flights.jsonl")
    sim = Simulator()
    stream = FlightStream(path, chunk_flights=8)
    recorder = FlightRecorder(sim, capacity=4, stream=stream).install()
    max_buffered = 0
    for i in range(100):
        packet = _packet()
        recorder.flight_begin(packet, "probe", node=f"n{i % 3}")
        recorder.stage(packet, "hop", node=f"n{(i + 1) % 3}")
        recorder.flight_end(packet)
        max_buffered = max(max_buffered, len(stream._buffer))
    recorder.close_stream()
    # The memory ceiling held on both sides of the pipe...
    assert len(recorder.flights()) <= 4
    assert max_buffered <= 8
    # ... yet the on-disk trace is complete and valid.
    assert recorder.flights_completed == 100
    flights = [json.loads(line) for line in open(path)]
    assert len(flights) == 100
    assert all(row["kind"] == "flight" for row in flights)
    stages = [stage for row in flights for stage in row["stages"]]
    assert len(stages) == 200  # "host.send" + "hop" per flight
    # Further adds after close are an error, close is idempotent.
    with pytest.raises(RuntimeError):
        stream.add(flights[0])
    assert stream.close() == path


def test_flight_stream_jsonl_format(tmp_path):
    path = str(tmp_path / "flights.jsonl")
    sim = Simulator()
    stream = FlightStream(path, fmt="jsonl", chunk_flights=2)
    recorder = FlightRecorder(sim, capacity=2, stream=stream).install()
    for _ in range(5):
        packet = _packet()
        recorder.flight_begin(packet, "probe", node="a")
        recorder.flight_end(packet)
    recorder.close_stream()
    rows = [json.loads(line) for line in open(path)]
    assert len(rows) == 5
    for row in rows:
        assert row["kind"] == "flight" and row["status"] == "ok"
        assert row["stages"] == [["host.send", "a", 0.0, 0.0]]


def test_flight_stream_validation_and_empty_close(tmp_path):
    # JSONL is the one on-disk format; Perfetto is a view of it.
    with pytest.raises(ValueError, match="repro.obs perfetto"):
        FlightStream("x", fmt="perfetto")
    with pytest.raises(ValueError):
        FlightStream("x", chunk_flights=0)
    path = str(tmp_path / "empty.jsonl")
    stream = FlightStream(path)
    stream.close()
    assert open(path).read() == ""


def test_flight_stream_same_seed_files_are_byte_identical(tmp_path):
    def produce(path):
        sim = Simulator(seed=4)
        stream = FlightStream(path, chunk_flights=3)
        recorder = FlightRecorder(sim, capacity=2, stream=stream).install()
        for i in range(10):
            packet = _packet()
            sim.at(float(i), lambda p=packet: recorder.flight_begin(
                p, "probe", node=f"n{i % 2}"))
            sim.at(i + 0.5, lambda p=packet: recorder.flight_end(p))
        sim.run()
        recorder.close_stream()
        return open(path, "rb").read()

    first = produce(str(tmp_path / "a.jsonl"))
    second = produce(str(tmp_path / "b.jsonl"))
    assert first == second
    assert first.count(b"\n") == 10

