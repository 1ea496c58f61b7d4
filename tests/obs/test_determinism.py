"""Determinism and cost guarantees of the observability layer.

Three contracts:

* same seed => byte-identical registry rows (the ``metrics`` section
  of an experiment report);
* a LiveMonitor replays the golden Fig-8 failover trace byte-identically
  to a run without one — observation never perturbs;
* the packet and CPU-chunk paths push nothing into the registry: every
  instrument they feed is pulled from a hot-path integer when read.
"""

import json
import sys

import pytest

from repro.core.infrastructure import VINI
from repro.faults import FaultPlan
from repro.phys.load import CPUHog
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
# Observation => golden Fig-8 trace unchanged
# ----------------------------------------------------------------------
def _serialize(sim) -> str:
    return "\n".join(
        f"{r.time:.9f} {r.kind} {sorted(r.fields.items())!r}"
        for r in sim.trace.records
    )


def _fig8_trace(live=None):
    """The Fig-8 run's serialized trace and instrument names; a ``live``
    feed path installs a LiveMonitor writing there."""
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
    return _serialize(vini.sim), [row["name"] for row in vini.sim.metrics.collect()]


def test_live_monitor_leaves_golden_fig8_trace_unchanged(tmp_path):
    """A LiveMonitor is passive at the trace layer: its periodic
    snapshot events read probes but never write trace records, so a
    monitored run replays the golden Fig-8 trace byte-identically, and
    it registers no instrument of its own."""
    baseline_trace, baseline_names = _fig8_trace()
    live_trace, live_names = _fig8_trace(live=str(tmp_path / "live.jsonl"))
    assert "fault" in baseline_trace  # the failover actually happened
    # The routing daemons churned the RIB throughout this failover, but
    # rib_change is a quiet kind: with no tracker installed the guarded
    # call sites log nothing.
    assert "rib_change" not in baseline_trace
    assert "bgp_mux" not in baseline_trace
    assert live_trace == baseline_trace
    assert live_names == baseline_names


def test_fig8_world_registers_no_live_or_traffic_instruments():
    """The Fig-8 scenario installs neither the live layer nor a fluid
    traffic plane, so none of their instrument families may leak into
    the registry (the coverage gap PR 8 left for ``traffic.*``)."""
    vini, exp = build_abilene_iias(seed=8)
    exp.run(until=WARMUP)
    names = {row["name"] for row in vini.sim.metrics.collect()}
    assert names, "expected an instrumented world"
    leaked = {n for n in names
              if n.startswith("live.") or n.startswith("traffic.")}
    assert leaked == set()


# ----------------------------------------------------------------------
# The packet and chunk paths push nothing
# ----------------------------------------------------------------------
def test_the_packet_and_chunk_paths_push_nothing(gc_paused):
    """A TCP iperf across DETER, with hogs contending for every CPU on
    its path, feeds only pull instruments: the run enters no function
    of ``repro/obs/metrics.py`` (no ``Counter.inc``, no
    ``Histogram.observe``), so packets and CPU chunks cost the registry
    nothing until it is read."""
    vini = build_deter(seed=4)
    for name in ("src", "fwdr", "sink"):
        for index in range(2):
            CPUHog(vini.nodes[name], name=f"hog{index}").start()
    server = IperfTCPServer(vini.nodes["sink"])
    IperfTCPClient(
        vini.nodes["src"], vini.nodes["sink"].address,
        streams=2, duration=0.3, server=server,
    ).start()
    entered = {}

    def count(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.endswith(
                "repro/obs/metrics.py"):
            name = frame.f_code.co_name
            entered[name] = entered.get(name, 0) + 1

    sys.setprofile(count)
    try:
        vini.run(until=0.5)
    finally:
        sys.setprofile(None)
    assert server.bytes_received > 0
    assert sum(node.cpu.busy_time for node in vini.nodes.values()) > 0.4
    assert entered == {}
