"""Determinism and cost guarantees of the observability layer.

Three contracts:

* same seed => byte-identical registry rows (the ``metrics`` section
  of an experiment report);
* a metrics-disabled world replays the golden Fig-8 failover trace
  byte-identically to a metrics-enabled one — instrumentation observes,
  it never perturbs;
* metrics collection costs the engine hot loop nothing: it makes the
  same calls with the registry on as off (instrumentation is
  pull-based; the loop itself is untouched).
"""

import json
import sys

import pytest

from repro.core.infrastructure import VINI
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry
from repro.sim import PeriodicTimer, Simulator, Timeout
from repro.tools import IperfTCPClient, IperfTCPServer, Ping
from repro.topologies import build_abilene_iias, build_deter

WARMUP = 40.0


# ----------------------------------------------------------------------
# Same seed => byte-identical export
# ----------------------------------------------------------------------
def _drop_records(seed: int) -> list:
    """A three-node line, a ping across it and its second link failed
    under the ping: the drop records, as text."""
    vini = VINI(seed=seed)
    for name in ("a", "b", "c"):
        vini.add_node(name)
    vini.connect("a", "b", delay=0.004)
    vini.connect("b", "c", delay=0.004)
    vini.install_underlay_routes()
    vini.sim.trace.enable("drop")
    Ping(vini.nodes["a"], vini.nodes["c"].address, count=40, interval=0.005).start()
    vini.sim.schedule(0.1, vini.link_between("b", "c").fail)
    vini.run(until=1.0)
    return [f"{r.time:.9f} {sorted(r.fields.items())!r}"
            for r in vini.sim.trace.select("drop")]


def test_same_seed_runs_in_one_process_write_identical_drop_records():
    """Packet ids come from the simulator, not the process: a second
    run numbers its packets as the first did."""
    first = _drop_records(seed=3)
    second = _drop_records(seed=3)
    assert len(first) > 10
    assert "'link_failed'" in first[0] and "'link_down'" in first[-1]
    assert first == second


def _deter_rows(seed: int) -> list:
    vini = build_deter(seed=seed)
    server = IperfTCPServer(vini.nodes["sink"])
    IperfTCPClient(
        vini.nodes["src"], vini.nodes["sink"].address,
        streams=4, duration=0.5, server=server,
    ).start()
    vini.run(until=1.0)
    return vini.sim.metrics.collect()


@pytest.fixture(scope="module")
def seed11_rows():
    """One seed-11 snapshot shared by the two tests below: each compares
    it with a run of its own."""
    return _deter_rows(seed=11)


def test_same_seed_exports_byte_identical_jsonl(seed11_rows):
    first = json.dumps(seed11_rows, sort_keys=True)
    assert json.dumps(_deter_rows(seed=11), sort_keys=True) == first
    names = {row["name"] for row in seed11_rows}
    assert "iperf.tcp.bytes_received" in names
    assert "cpu.busy_seconds" in names


def test_different_seed_changes_the_numbers_not_the_schema(seed11_rows):
    b = _deter_rows(12)
    assert [(r["name"], r["labels"]) for r in seed11_rows] == [
        (r["name"], r["labels"]) for r in b
    ]


# ----------------------------------------------------------------------
# Disabled registry => golden Fig-8 trace unchanged
# ----------------------------------------------------------------------
def _serialize(sim) -> str:
    return "\n".join(
        f"{r.time:.9f} {r.kind} {sorted(r.fields.items())!r}"
        for r in sim.trace.records
    )


def _fig8_trace(metrics_enabled: bool, live=None):
    """The Fig-8 run's serialized trace and instrument count; a ``live``
    feed path installs a LiveMonitor writing there."""
    old = MetricsRegistry.default_enabled
    MetricsRegistry.default_enabled = metrics_enabled
    try:
        vini, exp = build_abilene_iias(seed=8)
        if live:
            from repro.obs import LiveMonitor

            monitor = LiveMonitor(vini.sim, interval=1.0, feed=live)
            monitor.watch_engine().watch_cpu()
            monitor.install()
        exp.run(until=WARMUP)
        plan = FaultPlan("fig8").fail_link(
            10.0, "denver", "kansascity", duration=24.0
        )
        exp.apply_faults(plan, offset=WARMUP)
        washington = exp.network.nodes["washington"]
        seattle = exp.network.nodes["seattle"]
        Ping(
            washington.phys_node, seattle.tap_addr, sliver=washington.sliver,
            interval=0.5, count=44,
        ).start()
        vini.run(until=WARMUP + 25.0)
        if live:
            monitor.stop()
        return _serialize(vini.sim), len(vini.sim.metrics.collect())
    finally:
        MetricsRegistry.default_enabled = old


def test_disabled_registry_leaves_golden_fig8_trace_unchanged():
    enabled_trace, enabled_count = _fig8_trace(True)
    disabled_trace, disabled_count = _fig8_trace(False)
    assert enabled_count > 50  # the world actually instrumented itself
    assert disabled_count == 0  # ... and a disabled one registered nothing
    assert "fault" in enabled_trace  # the failover actually happened
    assert enabled_trace == disabled_trace
    # The routing daemons churned the RIB throughout this failover, but
    # rib_change is a quiet kind: with no tracker installed the
    # guarded call sites log nothing, so golden traces are identical to
    # pre-instrumentation runs.
    assert "rib_change" not in enabled_trace
    assert "bgp_mux" not in enabled_trace


def test_live_monitor_leaves_golden_fig8_trace_unchanged(tmp_path):
    """A LiveMonitor is passive at the trace layer: its periodic
    snapshot events read probes but never write trace records, so a
    monitored run replays the golden Fig-8 trace byte-identically —
    and with a disabled registry it registers zero ``live.*``
    instruments on top of zero everything else."""
    baseline_trace, _ = _fig8_trace(True)
    live_trace, live_count = _fig8_trace(
        False, live=str(tmp_path / "live.jsonl"))
    assert live_count == 0  # disabled registry: no live.* instruments
    assert live_trace == baseline_trace


def test_fig8_world_registers_no_live_or_traffic_instruments():
    """The Fig-8 scenario installs neither the live layer nor a fluid
    traffic plane, so none of their instrument families may leak into
    the registry (the coverage gap PR 8 left for ``traffic.*``)."""
    old = MetricsRegistry.default_enabled
    MetricsRegistry.default_enabled = True
    try:
        vini, exp = build_abilene_iias(seed=8)
        exp.run(until=WARMUP)
        names = {row["name"] for row in vini.sim.metrics.collect()}
    finally:
        MetricsRegistry.default_enabled = old
    assert names, "expected an instrumented world"
    leaked = {n for n in names
              if n.startswith("live.") or n.startswith("traffic.")}
    assert leaked == set()


def test_traffic_plane_registers_nothing_when_registry_disabled():
    from repro.traffic import FluidTrafficPlane

    old = MetricsRegistry.default_enabled
    MetricsRegistry.default_enabled = False
    try:
        vini = build_deter(seed=5)
        FluidTrafficPlane(vini)
        assert vini.sim.metrics.collect() == []
    finally:
        MetricsRegistry.default_enabled = old


# ----------------------------------------------------------------------
# Enabled metrics cost the hot loop nothing
# ----------------------------------------------------------------------
def _noop() -> None:
    return None


def _engine_calls(enabled: bool) -> int:
    """Calls (Python and C) the event loop makes running one small
    OSPF-shaped timer workload: periodic timers, plus hello/dead pairs
    whose restarts litter the heap with cancelled events."""
    old = MetricsRegistry.default_enabled
    MetricsRegistry.default_enabled = enabled
    try:
        sim = Simulator(seed=0)
    finally:
        MetricsRegistry.default_enabled = old
    assert sim.metrics.enabled is enabled
    for i in range(64):
        PeriodicTimer(sim, 0.01 + 0.00037 * i, _noop)
    for i in range(8):
        dead = Timeout(sim, 0.2 + 0.012 * i, _noop)
        dead.start()
        PeriodicTimer(sim, 0.05 + 0.003 * i, dead.restart)
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        sim.run(until=2.0)
    finally:
        sys.setprofile(None)
    return calls


def test_enabled_metrics_add_no_call_to_the_event_loop(gc_paused):
    """Engine instrumentation is pull-only (three ``fn=`` gauges over
    already-maintained integers), so the event loop runs the same code
    either way — call for call."""
    disabled = _engine_calls(False)
    assert disabled > 10_000
    assert _engine_calls(True) == disabled
