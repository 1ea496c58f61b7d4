"""Tests for repro.obs.live: the live run observatory.

Four contracts:

* watchdogs (stall, livelock, rate) fire on the pathology, stay quiet
  on healthy runs, and re-arm only after the condition clears — all
  driven by synthetic clocks so no test ever sleeps;
* an ``abort`` watchdog stops a genuinely livelocked simulator from
  inside the engine's dispatch loop and leaves a diagnostic snapshot;
* the JSONL feed is wall-clock-free: same seed => byte-identical feed,
  even under wildly different synthetic clocks;
* the streaming exporters (FlightStream, spill sampler) write the
  *complete* series while in-memory retention stays under the
  configured ceiling.
"""

import io
import json
import os

import pytest

from repro.net.packet import OpaquePayload, Packet, UDPHeader
from repro.obs import (
    FlightRecorder,
    FlightStream,
    JsonlFeed,
    LiveMonitor,
    LivelockWatchdog,
    PeriodicSampler,
    RateWatchdog,
    RunArchive,
    StallWatchdog,
    Watchdog,
    attach_from_env,
    load_manifest,
)
from repro.obs.archive import ENV_FEED
from repro.obs.live import FEED_SCHEMA
from repro.sim import Simulator
from repro.tools import IperfTCPClient, IperfTCPServer
from repro.topologies import build_deter


def _advance(sim, t):
    """Run the sim forward to exactly ``t`` (a no-op event anchors it)."""
    sim.at(t, lambda: None)
    sim.run()


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
# Watchdog units (synthetic wall clocks; no sleeping)
# ----------------------------------------------------------------------
def test_watchdog_validation():
    with pytest.raises(ValueError):
        Watchdog(action="explode")
    with pytest.raises(ValueError):
        StallWatchdog(budget_s=0.0)
    with pytest.raises(ValueError):
        LivelockWatchdog(window_events=0)
    with pytest.raises(ValueError):
        RateWatchdog("x", lambda: 0, max_per_sim_s=0.0)
    with pytest.raises(ValueError):
        RateWatchdog("x", lambda: 0, max_per_sim_s=1.0, sustain=0)


def test_stall_watchdog_fires_on_stall_not_on_progress():
    sim = Simulator()
    monitor = LiveMonitor(sim)
    dog = StallWatchdog(budget_s=10.0, action="mark")
    assert dog.poll(monitor, 0.0) is None  # anchors progress
    assert dog.poll(monitor, 9.0) is None  # within budget
    detail = dog.poll(monitor, 11.0)  # 11s of wall, sim still at 0
    assert detail is not None and "no sim-time progress" in detail
    # Still stalled: already alarmed, no repeat until it clears.
    assert dog.poll(monitor, 20.0) is None
    # Sim-time progress clears and re-arms it.
    _advance(sim, 1.0)
    assert dog.poll(monitor, 21.0) is None
    assert not dog.fired
    # A second stall fires a second alarm.
    assert dog.poll(monitor, 32.0) is not None


def test_stall_watchdog_quiet_while_sim_advances():
    sim = Simulator()
    monitor = LiveMonitor(sim)
    dog = StallWatchdog(budget_s=5.0, action="mark")
    for i in range(10):
        _advance(sim, float(i + 1))
        assert dog.poll(monitor, i * 100.0) is None  # huge wall gaps: fine


def test_livelock_watchdog_fires_on_event_storm_without_sim_progress():
    sim = Simulator()
    monitor = LiveMonitor(sim)
    dog = LivelockWatchdog(window_events=100, min_sim_advance=1e-6,
                           action="mark")
    assert dog.poll(monitor, 0.0) is None  # anchors (now, seq)
    sim._seq += 1000  # storm: 1000 events scheduled, sim-time frozen
    detail = dog.poll(monitor, 1.0)
    assert detail is not None and "livelock" in detail
    # Same storm rate but sim-time advancing: healthy.
    sim._seq += 1000
    _advance(sim, 1.0)
    assert dog.poll(monitor, 2.0) is None
    assert not dog.fired


def test_rate_watchdog_requires_sustained_excess():
    sim = Simulator()
    monitor = LiveMonitor(sim)
    state = {"v": 0.0}
    dog = RateWatchdog("churn", lambda: state["v"], max_per_sim_s=10.0,
                       sustain=2, action="mark")
    assert dog.poll(monitor, 0.0) is None  # anchor at (t=0, v=0)
    _advance(sim, 1.0)
    state["v"] = 100.0  # 100/sim-s: hot, but only once
    assert dog.poll(monitor, 1.0) is None
    _advance(sim, 2.0)
    state["v"] = 200.0  # second consecutive hot poll: fires
    detail = dog.poll(monitor, 2.0)
    assert detail is not None and "churn" in detail
    # One cool poll resets both the sustain counter and the alarm.
    _advance(sim, 3.0)
    state["v"] = 205.0  # 5/sim-s
    assert dog.poll(monitor, 3.0) is None
    assert not dog.fired and dog._hot == 0
    _advance(sim, 4.0)
    state["v"] = 300.0
    assert dog.poll(monitor, 4.0) is None  # hot again, not yet sustained


def test_rate_watchdog_ignores_polls_without_sim_advance():
    sim = Simulator()
    monitor = LiveMonitor(sim)
    state = {"v": 0.0}
    dog = RateWatchdog("churn", lambda: state["v"], max_per_sim_s=1.0,
                       sustain=1, action="mark")
    assert dog.poll(monitor, 0.0) is None
    state["v"] = 1e9  # no sim-time denominator: no rate, no fire
    assert dog.poll(monitor, 1.0) is None


# ----------------------------------------------------------------------
# Monitor: probes, alarms, lifecycle
# ----------------------------------------------------------------------
def test_monitor_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        LiveMonitor(sim, interval=0.0)
    with pytest.raises(ValueError):
        LiveMonitor(sim, wall_interval=-1.0)
    with pytest.raises(ValueError):
        LiveMonitor(sim, poll_stride=0)
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


def test_mark_alarm_is_recorded_without_stopping_the_sim(capsys):
    sim = Simulator()
    wall = {"t": 0.0}
    monitor = LiveMonitor(sim, wall_interval=0.0, clock=lambda: wall["t"])
    monitor.add_watchdog(StallWatchdog(budget_s=5.0, action="mark"))
    monitor._wall_poll()  # anchors wall state
    wall["t"] = 10.0
    monitor._wall_poll()  # watchdog anchors its own progress marker
    wall["t"] = 20.0
    monitor._wall_poll()  # 10s stalled > 5s budget: fires
    (alarm,) = monitor.alarms
    assert alarm.action == "mark" and alarm.watchdog == "stall"
    assert alarm.sim_t == 0.0 and alarm.events == sim._seq
    assert monitor.diagnostic is None  # mark never writes a diagnostic
    assert not sim._stopped
    assert "ALARM stall" in capsys.readouterr().err


def test_abort_watchdog_stops_a_livelocked_run(tmp_path, capsys):
    """The end-to-end pathology: a self-feeding call_soon storm never
    advances sim-time, so only the dispatch-loop hook can see it. The
    stall watchdog must abort the run (instead of hanging forever) and
    leave a diagnostic — indexed by the run's archive, since an aborted
    run is exactly the one somebody will open."""
    sim = Simulator(seed=1)
    archive = RunArchive(str(tmp_path / "arch")).attach(sim)
    wall = {"t": 0.0}

    def clock():
        wall["t"] += 1.0  # each poll advances fake wall-clock by 1s
        return wall["t"]

    feed_path = str(tmp_path / "storm.jsonl")
    monitor = LiveMonitor(sim, interval=1.0, wall_interval=0.0,
                          feed=feed_path, clock=clock, poll_stride=1)
    monitor.add_watchdog(StallWatchdog(budget_s=3.0, action="abort"))
    monitor.install()

    def storm():
        sim.call_soon(storm)

    sim.call_soon(storm)
    sim.run(until=10.0)  # returns: the abort stopped it

    assert sim.now == 0.0  # never made sim progress
    (alarm,) = monitor.alarms
    assert alarm.action == "abort" and alarm.watchdog == "stall"
    assert monitor.diagnostic is not None
    diag = json.loads(open(feed_path + ".diag.json").read())
    assert diag["alarm"]["watchdog"] == "stall"
    assert diag["snapshot"]["t"] == 0.0
    artifacts = load_manifest(archive.write())["artifacts"]
    assert artifacts["storm.jsonl.diag.json"]["kind"] == "json"
    assert artifacts["storm.jsonl"]["kind"] == "live_feed"
    capsys.readouterr()  # swallow the alarm line


def test_monitor_stop_is_idempotent_and_unhooks_the_engine():
    sim = Simulator()
    monitor = LiveMonitor(sim, feed=io.StringIO()).install()
    assert sim._live_hook is not None
    monitor.stop()
    assert sim._live_hook is None
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
    assert section["alarms"] == []


def test_build_report_renders_live_section():
    from repro.obs.report import build_report

    sim = Simulator()
    monitor = LiveMonitor(sim, interval=1.0).install()
    sim.run(until=2.0)
    monitor.stop()
    report = build_report(sim, name="t", monitor=monitor)
    assert report.data["live"]["snapshots"] == monitor.snapshots
    assert "## Live monitor" in report.to_markdown()


# ----------------------------------------------------------------------
# Feed determinism: same seed => byte-identical, wall-clock-free
# ----------------------------------------------------------------------
def _deter_feed(seed: int, clock) -> str:
    buf = io.StringIO()
    vini = build_deter(seed=seed)
    monitor = LiveMonitor(vini.sim, interval=0.25, feed=buf, clock=clock,
                          wall_interval=0.0, poll_stride=1)
    monitor.watch_engine()
    monitor.add_watchdog(StallWatchdog(budget_s=1e9, action="mark"))
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
    """One seed-11 run under a slow synthetic clock, shared by the two
    tests below: each compares it with a run of its own."""
    slow = {"t": 0.0}

    def slow_clock():
        slow["t"] += 0.001
        return slow["t"]

    return _deter_feed(11, slow_clock)


def test_same_seed_live_feed_is_byte_identical(seed11_feed):
    """Two runs under *different* synthetic wall clocks (one 1000x
    faster than the other) must still produce byte-identical feeds:
    snapshot selection and content are both purely sim-keyed."""
    fast = {"t": 0.0}

    def fast_clock():
        fast["t"] += 1.0
        return fast["t"]

    first = seed11_feed
    second = _deter_feed(11, fast_clock)
    assert first == second
    rows = [json.loads(line) for line in first.splitlines()]
    assert rows[0]["schema"] == FEED_SCHEMA
    assert len(rows) > 4  # header + anchor + periodic + final
    assert rows[-1]["t"] == 1.0
    # Engine probes made it into every snapshot.
    assert "sim.heap_entries" in rows[1]["probes"]


def test_different_seed_changes_feed_content(seed11_feed):
    clock = iter(range(1, 10 ** 6))
    b = _deter_feed(12, lambda: float(next(clock)))
    assert seed11_feed != b  # seed lands in the header and events differ


# ----------------------------------------------------------------------
# Env-driven attachment (REPRO_LIVE_FEED)
# ----------------------------------------------------------------------
def test_maybe_attach_env_monitor_absent_env_is_a_no_op(monkeypatch):
    monkeypatch.delenv(ENV_FEED, raising=False)
    monkeypatch.delenv("REPRO_RUN_ARCHIVE", raising=False)
    sim = Simulator()
    assert attach_from_env(sim) is None
    assert sim._live_hook is None


def test_maybe_attach_env_monitor_installs_once(tmp_path, monkeypatch):
    path = str(tmp_path / "env_feed.jsonl")
    monkeypatch.setenv(ENV_FEED, path)
    sim = Simulator(seed=3)
    attach_from_env(sim, until=5.0)
    monitor = sim._env_live_monitor
    assert monitor is not None and monitor.until == 5.0
    attach_from_env(sim, until=9.0)
    assert sim._env_live_monitor is monitor  # idempotent
    assert monitor.until == 9.0
    monitor.stop()
    rows = [json.loads(line) for line in open(path)]
    assert rows[0]["schema"] == FEED_SCHEMA and rows[0]["seed"] == 3


def test_env_monitor_attaches_through_vini_run(tmp_path, monkeypatch):
    path = str(tmp_path / "vini_feed.jsonl")
    monkeypatch.setenv(ENV_FEED, path)
    vini = build_deter(seed=2)
    vini.run(until=0.5)
    monitor = vini.sim._env_live_monitor
    assert monitor is not None and monitor.until == 0.5
    monitor.stop()
    rows = [json.loads(line) for line in open(path)]
    assert rows[0]["schema"] == FEED_SCHEMA
    assert rows[-1]["t"] == 0.5


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


# ----------------------------------------------------------------------
# Status line: TTY-aware suppression
# ----------------------------------------------------------------------
class _FakeTTY(io.StringIO):
    def isatty(self):
        return True


def test_status_line_refreshes_in_place_on_a_tty():
    sim = Simulator()
    status = _FakeTTY()
    monitor = LiveMonitor(sim, status=status, clock=lambda: 1.0)
    monitor._refresh_status(1.0)
    monitor._refresh_status(2.0)
    text = status.getvalue()
    assert "\r\x1b[2K" in text  # in-place rewrite, no scrollback spam
    assert monitor.status_refreshes == 2


def test_status_line_is_suppressed_when_stream_is_not_a_tty():
    """Piped/redirected output (CI logs) must not fill with carriage
    returns: non-TTY targets get only final newline-terminated lines."""
    sim = Simulator()
    status = io.StringIO()  # isatty() -> False
    monitor = LiveMonitor(sim, status=status, clock=lambda: 1.0)
    monitor._refresh_status(1.0)  # in-place refresh: swallowed
    monitor._refresh_status(2.0)
    assert status.getvalue() == ""
    assert monitor.status_refreshes == 0
    monitor._refresh_status(3.0, newline=True)  # final line still lands
    text = status.getvalue()
    assert text.endswith("\n") and "\r" not in text and "\x1b" not in text
    assert monitor.status_refreshes == 1


def test_status_stream_without_isatty_counts_as_non_tty():
    class NoIsatty:
        def write(self, text):
            pass

        def flush(self):
            pass

    NoIsatty.isatty = property(lambda self: (_ for _ in ()).throw(
        AttributeError("no isatty")))
    sim = Simulator()
    monitor = LiveMonitor(sim, status=NoIsatty(), clock=lambda: 1.0)
    assert monitor._status_tty is False
