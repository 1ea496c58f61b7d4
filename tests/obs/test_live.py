"""Tests for repro.obs.live: the live run observatory.

Three contracts:

* the JSONL feed holds simulation state only: same seed =>
  byte-identical feed;
* an installed monitor adds no per-event cost: its snapshots are
  ordinary periodic sim events, and the engine's dispatch loop polls
  nothing on its behalf;
* the streaming exporters (FlightStream, spill sampler) write the
  *complete* series while in-memory retention stays under the
  configured ceiling.
"""

import io
import json
import sys

import pytest

from repro.net.packet import OpaquePayload, Packet, UDPHeader
from repro.obs import (
    FlightRecorder,
    FlightStream,
    JsonlFeed,
    LiveMonitor,
    PeriodicSampler,
)
from repro.obs.live import FEED_SCHEMA
from repro.sim import Simulator
from repro.tools import IperfTCPClient, IperfTCPServer
from repro.topologies import build_deter


def _packet():
    return Packet([UDPHeader(1000, 2000)], payload=OpaquePayload(8))


# ----------------------------------------------------------------------
# JsonlFeed
# ----------------------------------------------------------------------
def test_jsonl_feed_sorted_keys_and_line_count():
    buf = io.StringIO()
    feed = JsonlFeed(buf)
    feed.emit({"b": 1, "a": 2})
    feed.emit({"z": 3})
    assert buf.getvalue() == '{"a": 2, "b": 1}\n{"z": 3}\n'
    assert feed.lines == 2
    feed.close()  # does not close a borrowed handle
    assert not buf.closed


def test_jsonl_feed_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "feed.jsonl"
    feed = JsonlFeed(str(path))
    feed.emit({"ok": True})
    feed.close()
    assert json.loads(path.read_text()) == {"ok": True}


# ----------------------------------------------------------------------
# Monitor: probes, lifecycle, cost
# ----------------------------------------------------------------------
def test_monitor_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        LiveMonitor(sim, interval=0.0)
    monitor = LiveMonitor(sim).watch("x", lambda: 1)
    with pytest.raises(ValueError):
        monitor.watch("x", lambda: 2)  # duplicate probe key


def test_feed_header_and_snapshot_shape():
    sim = Simulator(seed=7)
    buf = io.StringIO()
    monitor = LiveMonitor(sim, interval=1.0, feed=buf)
    monitor.watch("answer", lambda: 42)
    monitor.install()
    sim.run(until=2.5)
    monitor.stop(final=True)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
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


def test_monitor_stop_is_idempotent_and_unhooks_the_engine():
    sim = Simulator()
    monitor = LiveMonitor(sim, feed=io.StringIO()).install()
    assert sim.pending == 1  # the periodic snapshot event
    monitor.stop()
    assert sim.pending == 0
    before = monitor.snapshots
    monitor.stop()  # second stop: no extra final snapshot
    assert monitor.snapshots == before


def test_as_dict_reports_snapshots_and_alarms():
    sim = Simulator()
    monitor = LiveMonitor(sim, interval=0.5).install()
    sim.run(until=1.0)
    monitor.stop()
    section = monitor.as_dict()
    assert section["name"] == "live" and section["interval"] == 0.5
    assert section["snapshots"] == monitor.snapshots
    assert set(section) == {"name", "interval", "snapshots"}


def test_build_report_renders_live_section():
    from repro.obs.report import build_report

    sim = Simulator()
    monitor = LiveMonitor(sim, interval=1.0).install()
    sim.run(until=2.0)
    monitor.stop()
    report = build_report(sim, name="t", monitor=monitor)
    assert report.data["live"]["snapshots"] == monitor.snapshots
    assert "## Live monitor" in report.to_markdown()


def _noop() -> None:
    return None


def _dispatch_cost(events: int, monitored: bool):
    """What ``run()`` does dispatching ``events`` no-op events, all inside
    one 10 s snapshot interval: the calls (Python and C) it makes, and
    the lines of ``Simulator.run`` itself it executes (a hook polled on
    a stride longer than the run makes no call, but costs lines)."""
    sim = Simulator()
    if monitored:
        LiveMonitor(sim, interval=10.0).install()
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


def test_installed_monitor_adds_no_per_event_cost(gc_paused):
    """Between two snapshots a monitor does nothing at all: what a
    monitored run does beyond a bare one does not grow with the events
    dispatched, so any engine-polled hook (however strided) fails this."""
    extra = []
    for events in (5_000, 10_000):
        calls, lines = _dispatch_cost(events, monitored=False)
        assert calls > events and lines > events
        more_calls, more_lines = _dispatch_cost(events, monitored=True)
        extra.append((more_calls - calls, more_lines - lines))
    assert extra[0] == extra[1]


# ----------------------------------------------------------------------
# Feed determinism: same seed => byte-identical
# ----------------------------------------------------------------------
def _deter_feed(seed: int) -> str:
    buf = io.StringIO()
    vini = build_deter(seed=seed)
    monitor = LiveMonitor(vini.sim, interval=0.25, feed=buf)
    monitor.watch_engine()
    monitor.install()
    server = IperfTCPServer(vini.nodes["sink"])
    IperfTCPClient(
        vini.nodes["src"], vini.nodes["sink"].address,
        streams=4, duration=0.5, server=server,
    ).start()
    vini.run(until=1.0)
    monitor.stop(final=True)
    return buf.getvalue()


@pytest.fixture(scope="module")
def seed11_feed():
    """One seed-11 run, shared by the two tests below: each compares it
    with a run of its own."""
    return _deter_feed(11)


def test_same_seed_live_feed_is_byte_identical(seed11_feed):
    """Snapshot selection (sim-time cadence) and content (sim state
    only) are both sim-keyed, so a second run writes the same bytes."""
    first = seed11_feed
    second = _deter_feed(11)
    assert first == second
    rows = [json.loads(line) for line in first.splitlines()]
    assert rows[0]["schema"] == FEED_SCHEMA
    assert len(rows) > 4  # header + anchor + periodic + final
    assert rows[-1]["t"] == 1.0
    # Engine probes made it into every snapshot.
    assert "sim.heap_entries" in rows[1]["probes"]


def test_different_seed_changes_feed_content(seed11_feed):
    b = _deter_feed(12)
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
        max_buffered = max(max_buffered, stream.buffered)
    recorder.close_stream()
    # The memory ceiling held on both sides of the pipe...
    assert len(recorder.flights()) <= 4
    assert max_buffered <= 8
    # ... yet the on-disk trace is complete and valid.
    assert stream.flights_written == recorder.flights_completed == 100
    flights = [json.loads(line) for line in open(path)]
    assert len(flights) == 100
    assert all(row["kind"] == "flight" for row in flights)
    stages = [stage for row in flights for stage in row["stages"]]
    assert len(stages) == 200  # "origin" + "hop" per flight
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
        assert row["stages"] == [["origin", "a", 0.0, 0.0]]


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


# ----------------------------------------------------------------------
# Sampler spill: complete on-disk series, bounded memory
# ----------------------------------------------------------------------
def test_sampler_spill_keeps_memory_bounded_and_series_complete(tmp_path):
    path = str(tmp_path / "series.csv")
    sim = Simulator()
    counter = sim.metrics.counter("ticks")
    sim.schedule_periodic(0.1, counter.inc)
    sampler = PeriodicSampler(
        sim, 0.1, name="s", max_points=10, spill_path=path,
    ).watch("ticks", metric=counter).start()
    sim.run(until=5.0)
    assert len(sampler.series("ticks")) <= 10  # ceiling held while live
    assert sampler.spilled_rows > 0  # ... because it actually spilled
    sampler.stop(final=True)
    sampler.finish()
    lines = open(path).read().splitlines()
    assert lines[0] == "key,time,value,count,sum"
    rows = [line.split(",") for line in lines[1:]]
    # Disk holds the complete series: spilled prefix + retained tail.
    assert len(rows) == sampler.spilled_rows
    times = [float(r[1]) for r in rows]
    assert times[0] == 0.0 and times[-1] == 5.0
    assert times == sorted(times) and len(times) == len(set(times))
    # Values are the monotone counter: the series round-trips intact.
    values = [int(float(r[2])) for r in rows]
    assert values == sorted(values)
    assert sampler.finish() == path  # idempotent


def test_sampler_spill_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicSampler(sim, 1.0, max_points=4)  # a cap with nowhere to spill
    with pytest.raises(ValueError):
        PeriodicSampler(sim, 1.0, spill_path="x")  # a file with no cap


def test_sampler_spill_after_finish_is_an_error(tmp_path):
    path = str(tmp_path / "series.csv")
    sim = Simulator()
    sampler = PeriodicSampler(
        sim, 1.0, max_points=2, spill_path=path,
    ).watch("x", fn=lambda: 1).start()
    sim.run(until=3.0)
    sampler.stop()
    sampler.finish()
    with pytest.raises(RuntimeError):
        sampler._spill("x", [(4.0, 1)])
