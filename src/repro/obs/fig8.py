"""The one Fig-8 observatory: ``python -m repro.obs fig8 OUT``.

Runs the paper's Section 5.2 experiment — the Abilene mirror, the
Denver--Kansas City failure, D.C. -> Seattle pings — with every
collector installed, and lands one :class:`~repro.obs.archive.RunArchive`
in ``out_dir``: ``trace.jsonl``, ``flights.jsonl``, ``series.csv``,
``live.jsonl``, ``report.md`` + ``report.json`` and the manifest. The
experiment report, the live feed and the archive that the ``diff``,
``explain`` and ``perfetto`` verbs read are all this one run.

Not imported from ``repro/obs/__init__.py``: this module imports the
layers above the engine, and the package is imported *by*
``repro.sim.engine``.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.faults import FaultPlan
from repro.obs.archive import RunArchive, experiment_signature
from repro.obs.export import FlightStream, detect_commit, export_series_csv
from repro.obs.live import LiveMonitor
from repro.obs.report import ExperimentReport, build_report
from repro.obs.routing import ConvergenceTracker
from repro.obs.sampler import PeriodicSampler
from repro.obs.spans import FlightRecorder
from repro.tools.ping import Ping
from repro.topologies import build_abilene_iias

#: The paper's schedule, in sim-seconds: OSPF warms up, the link fails
#: ``FAIL_AT`` after that and stays down for ``FAIL_DURATION``.
WARMUP = 40.0
FAIL_AT = 10.0
FAIL_DURATION = 24.0
#: D.C. -> Seattle ping spacing, sim-seconds.
PING_INTERVAL = 0.5


def run_fig8(
    out_dir: str,
    seed: int = 8,
    end_at: float = 45.0,
    nudge_index: Optional[int] = None,
    nudge_dt: float = 0.0,
) -> Tuple[str, ExperimentReport]:
    """Run the failover for ``end_at`` sim-seconds past the warm-up,
    pinging every ``PING_INTERVAL``; returns the manifest path and the
    compiled report.

    A same-seed pair of calls produces byte-identical archives — unless
    ``nudge_index`` injects the single-event timestamp perturbation used
    to exercise the diff engine: that trace record's time moves by
    ``nudge_dt`` sim-seconds before the trace is written, so the first
    (and only) divergence a diff reports is exactly its ``t`` field.
    """
    os.makedirs(out_dir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(out_dir, name)

    vini, exp = build_abilene_iias(seed=seed)
    sim = vini.sim
    run_until = WARMUP + end_at + 2.0
    archive = RunArchive(out_dir, name="fig8",
                         meta={"commit": detect_commit()}).attach(sim)
    stream = FlightStream(path("flights.jsonl"), chunk_flights=64)
    recorder = FlightRecorder(sim, capacity=128, stream=stream).install()
    tracker = ConvergenceTracker(exp).install()
    tracker.watch_path("washington", "seattle")
    monitor = LiveMonitor(sim, interval=1.0, feed=path("live.jsonl"),
                          name="fig8")
    monitor.watch_engine().watch_cpu()
    monitor.watch_convergence(tracker)
    monitor.install()

    exp.run(until=WARMUP)
    plan = FaultPlan("fig8").fail_link(
        FAIL_AT, "denver", "kansascity", duration=FAIL_DURATION)
    exp.apply_faults(plan, offset=WARMUP)
    washington = exp.network.nodes["washington"]
    seattle = exp.network.nodes["seattle"]
    ping = Ping(
        washington.phys_node, seattle.tap_addr, sliver=washington.sliver,
        interval=PING_INTERVAL, count=int(end_at / PING_INTERVAL),
    ).start()
    sampler = PeriodicSampler(sim, 1.0, name="fig8")
    sampler.watch("rtt", metric=ping.rtt_hist).start()
    vini.run(until=run_until)

    sampler.stop(final=True)
    monitor.stop()
    recorder.close_stream()
    export_series_csv(sampler, path("series.csv"))
    report = build_report(
        sim, name="fig8",
        meta={"config": "abilene-iias", "seed": seed, "warmup_s": WARMUP,
              "fail_at_s": FAIL_AT, "fail_duration_s": FAIL_DURATION,
              "ping": "washington->seattle @ %gs" % PING_INTERVAL},
        samplers=(sampler,), recorder=recorder, routing=True,
        tracker=tracker, monitor=monitor,
    )
    report.write(path("report"))
    if nudge_index is not None:
        records = sim.trace.records
        if not 0 <= nudge_index < len(records):
            raise ValueError(
                f"nudge index {nudge_index} is out of range: the trace "
                f"has {len(records)} records")
        records[nudge_index].time += nudge_dt
    sim.trace.spill_to(path("trace.jsonl"))
    archive.set_meta(config_signature=experiment_signature(exp))
    manifest_path = archive.write()
    archive.detach()
    return manifest_path, report
