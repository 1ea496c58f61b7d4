"""The ledger's five workloads, built from ``repro.*`` public API only.

Each workload is a class with three phases the child process times
separately: ``setup`` (world build + warm-up to the steady state the
measured phase starts from), ``run`` (the measured phase, including any
end-of-run exports the workload does) and ``results`` (untimed: work
count, headline outputs, checks). ``setup`` and ``run`` are generators:
they yield between slices of simulated time so the child can read the
host's speed next to every slice (see ``child.HostClock``).

``seed`` feeds the input generators only: the simulator's named RNG
streams (hog quanta, jitter), the zoo topology, the fluid session
schedule. ``scale`` shrinks the measured work, never the fault timeline
a check depends on; what it shrinks is stated per workload. Sizes at
``scale=1.0`` are the ones ISSUE 11 pinned; ``run.py`` runs at
``PINNED_SCALE`` (see there for why).

Nothing here imports ``benchmarks.common`` or a ``bench_*.py``: later
PRs may edit or delete those, and the instrument must not move with
them. The PlanetLab world and hog helper are therefore re-created
locally.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List, Tuple

from repro.core import VINI, Experiment
from repro.faults import FaultPlan
from repro.obs import (
    ConvergenceTracker,
    FlightRecorder,
    FlightStream,
    LiveMonitor,
    PeriodicSampler,
    RunArchive,
    build_report,
    experiment_signature,
    export_series_csv,
)
from repro.phys.load import CPUHog
from repro.tools import IperfTCPClient, IperfTCPServer, Ping
from repro.topologies import build_abilene_iias, build_deter
from repro.topologies.abilene import ABILENE_LINKS, ABILENE_POPS
from repro.topologies.internet import build_internet
from repro.traffic import FluidTrafficPlane

Check = Tuple[str, bool, str]  # (name, passed, what was seen)

IPERF_WINDOW = 16 * 1024  # iperf 1.7 default receiver window


SLICES = 48  # host-speed readings per simulated stretch


def advance(target, until: float, slices: int = SLICES, first: float = 0.0):
    """Run ``target`` (a VINI, Experiment or InternetWorld) to sim-time
    ``until`` in slices, yielding after each. Slices are equal, or with
    ``first`` (the length of the first one) grow geometrically: a cold
    start does its work in its first sim-milliseconds."""
    start = target.sim.now
    span = until - start
    for k in range(1, slices):
        if first:
            offset = first * (span / first) ** ((k - 1) / (slices - 1))
        else:
            offset = span * k / slices
        target.run(until=start + offset)
        yield
    target.run(until=until)
    yield


def _band(name: str, value: float, lo: float, hi: float) -> Check:
    return (name, lo <= value <= hi, f"{value:.4g} (want {lo:g}-{hi:g})")


class Workload:
    """One named scenario. Subclasses set the class attributes and
    implement the three phases."""

    name = ""
    unit = ""  # the work unit of work_per_s
    version = 1  # bump when inputs, sizes or checks change
    why = ""
    # Sizing-run run_s at scale 1.0 on the 2-core reference box; the
    # parent's hang budget is a multiple of it.
    expected_run_s = 10.0
    expected_setup_s = 1.0
    n_checks = 1  # checks a crashed or timed-out run is charged with

    def __init__(self, seed: int, scale: float, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def setup(self):
        """Generator: build the world and warm it up."""
        raise NotImplementedError

    def run(self):
        """Generator: the measured phase."""
        raise NotImplementedError

    def sims(self) -> list:
        """Every simulator the workload drives (counters are summed)."""
        raise NotImplementedError

    def results(
        self, counters: Dict[str, float]
    ) -> Tuple[float, Dict[str, Any], List[Check]]:
        """``(work, headline outputs, checks)`` given the measured
        phase's counter deltas; outputs go in the digest, so they hold
        sim-world values only."""
        raise NotImplementedError

    def artifact_bytes(self) -> int:
        return 0


# ----------------------------------------------------------------------
# abilene-failover: Fig 8 + Fig 9 in one world, full observatory on
# ----------------------------------------------------------------------
class AbileneFailover(Workload):
    """11-PoP Abilene IIAS, OSPF 5 s/10 s, 4 Hz ping and one
    16 KB-window iperf stream D.C. -> Seattle; Denver--KC fails at
    t=10 s and recovers at t=34 s; 52 sim-s measured after a 40 s
    warm-up. ``scale`` shortens the TCP transfer (50 sim-s x scale from
    t=0) and nothing else: the fault timeline and the ping cover the
    full 52 s at any scale."""

    name = "abilene-failover"
    unit = "pkts"
    why = (
        "the paper's headline 5.2 failover run with the observatory on: "
        "Click, packet copy, trie lookup and obs do their most work; "
        "routing does a single-link incremental reconvergence"
    )
    expected_run_s = 7.0
    expected_setup_s = 0.8
    n_checks = 6

    WARMUP = 40.0
    FAIL_AT = 10.0
    RECOVER_AT = 34.0
    END_AT = 52.0
    PING_INTERVAL = 0.25
    TRANSFER_S = 50.0

    def setup(self):
        out = self.workdir
        self.vini, self.exp = build_abilene_iias(seed=self.seed)
        sim = self.sim = self.vini.sim
        # A fixed commit string: the manifest must not change size with
        # the checkout it runs in.
        self.archive = RunArchive(out, name=self.name, meta={"commit": "ledger"})
        self.archive.attach(sim)
        stream = FlightStream(
            os.path.join(out, "flights.jsonl"), fmt="jsonl", chunk_flights=64
        )
        self.recorder = FlightRecorder(sim, capacity=128, stream=stream).install()
        self.tracker = ConvergenceTracker(self.exp).install()
        self.tracker.watch_path("washington", "seattle")
        self.monitor = LiveMonitor(
            sim, interval=1.0, feed=os.path.join(out, "live.jsonl"), name=self.name
        )
        self.monitor.watch_engine()
        self.monitor.install()
        yield from advance(self.exp, self.WARMUP)

    def run(self):
        out, sim, warm = self.workdir, self.sim, self.WARMUP
        plan = FaultPlan("failover").fail_link(
            self.FAIL_AT, "denver", "kansascity",
            duration=self.RECOVER_AT - self.FAIL_AT,
        )
        self.exp.apply_faults(plan, offset=warm)
        src = self.exp.network.nodes["washington"]
        dst = self.exp.network.nodes["seattle"]
        self.ping = Ping(
            src.phys_node, dst.tap_addr, sliver=src.sliver,
            interval=self.PING_INTERVAL,
            count=int((self.END_AT - 2.0) / self.PING_INTERVAL),
        ).start()
        sampler = PeriodicSampler(sim, 1.0, name=self.name)
        sampler.watch("rtt", metric=self.ping.rtt_hist).start()
        self.server = IperfTCPServer(
            dst.phys_node, sliver=dst.sliver, window=IPERF_WINDOW
        )
        IperfTCPClient(
            src.phys_node, dst.tap_addr, sliver=src.sliver, streams=1,
            duration=self.TRANSFER_S * self.scale, window=IPERF_WINDOW,
            server=self.server,
        ).start()
        yield from advance(self.vini, warm + self.END_AT)
        # End-of-run exports are part of how people run this: they are
        # inside run_s on purpose.
        sampler.stop(final=True)
        self.monitor.stop()
        self.recorder.close_stream()
        export_series_csv(sampler, os.path.join(out, "series.csv"))
        report = build_report(
            sim, name=self.name, meta={"config": "abilene-iias", "seed": self.seed},
            samplers=(sampler,), recorder=self.recorder, tracker=self.tracker,
        )
        report.write(os.path.join(out, "report"))
        sim.trace.spill_to(os.path.join(out, "trace.spill"))
        self.archive.set_meta(config_signature=experiment_signature(self.exp))
        self.archive.write()
        self.archive.detach()
        yield

    def sims(self) -> list:
        return [self.sim]

    def artifact_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.workdir, entry))
            for entry in os.listdir(self.workdir)
        )

    def results(self, counters):
        warm = self.WARMUP
        series = [(t - warm, rtt * 1e3) for t, rtt in self.ping.rtt_series()]

        def plateau(t0: float, t1: float) -> float:
            rtts = [rtt for t, rtt in series if t0 <= t < t1]
            return sum(rtts) / len(rtts) if rtts else 0.0

        before = plateau(0.0, self.FAIL_AT)
        rerouted = plateau(22.0, self.RECOVER_AT)
        after = plateau(42.0, self.END_AT)
        times = sorted(t for t, _rtt in series)
        outage = max((b - a for a, b in zip(times, times[1:])), default=0.0)
        timeouts = counters["net.tcp.timeouts"]
        episodes = len(self.tracker.episodes)
        checks = [
            _band("rtt_before_ms", before, 70.0, 82.0),
            _band("rtt_rerouted_ms", rerouted, 86.0, 105.0),
            _band("rtt_after_ms", after, 70.0, 82.0),
            _band("outage_s", outage, 4.0, 12.0),
            ("convergence_episodes", episodes == 2, f"{episodes} (want 2)"),
        ]
        # The transfer only sees the failure if it is still running then.
        if self.TRANSFER_S * self.scale > self.FAIL_AT + 2.0:
            checks.append(("tcp_timeouts", timeouts >= 1, f"{timeouts} (want >=1)"))
        outputs = {
            "rtt_before_ms": round(before, 6),
            "rtt_rerouted_ms": round(rerouted, 6),
            "rtt_after_ms": round(after, 6),
            "outage_s": round(outage, 6),
            "episodes": episodes,
            "ping_received": self.ping.received,
            "tcp_bytes": self.server.bytes_received,
        }
        return counters["phys.link.pkts_delivered"], outputs, checks


# ----------------------------------------------------------------------
# planetlab-iperf: Table 4's two IIAS rows, back to back
# ----------------------------------------------------------------------
PLANETLAB_CHAIN = (("chicago", "newyork"), ("newyork", "washington"))


def build_planetlab_iias(config: str, seed: int):
    """Chicago--NY--Washington with seven heavy-tailed CPU hogs per
    node, IIAS as ``plvini`` (25 % reservation + RT priority) or
    ``planetlab`` (default fair share), started but not yet run."""
    vini = VINI(seed=seed)
    pops = ("chicago", "newyork", "washington")
    for pop in pops:
        vini.add_node(pop)
    for a, b in PLANETLAB_CHAIN:
        vini.connect(a, b, bandwidth=100e6, delay=ABILENE_LINKS[(a, b)],
                     queue_bytes=256 * 1024)
    vini.install_underlay_routes()
    plvini = config == "plvini"
    exp = Experiment(
        vini, "iias", cpu_reservation=0.25 if plvini else 0.0, realtime=plvini
    )
    for pop in pops:
        exp.add_node(pop, pop)
    for a, b in PLANETLAB_CHAIN:
        exp.connect(a, b)
    exp.configure_ospf(hello_interval=5.0, dead_interval=10.0)
    exp.start()
    for node in vini.nodes.values():
        for index in range(7):
            CPUHog(
                node, name=f"slice{index}", quantum=0.0005,
                heavy_tail_prob=0.006, heavy_tail_max=0.045,
            ).start()
    return vini, exp


class PlanetLabIperf(Workload):
    """Table 4's ``plvini`` and ``planetlab`` rows in one run: a
    20-stream iperf for 2 sim-s x scale after a loaded warm-up of
    30 sim-s x scale (at least 10 s: OSPF must be up), once per
    configuration."""

    name = "planetlab-iperf"
    unit = "bytes"
    why = (
        "the paper's isolation claim: phys.cpu is the largest layer and "
        "the two configs use it differently (RT/reservation vs fair "
        "share), so a gain for one that costs the other shows"
    )
    expected_run_s = 10.5
    expected_setup_s = 3.6
    n_checks = 3

    WARMUP = 30.0
    DURATION = 2.0
    STREAMS = 20
    CONFIGS = ("plvini", "planetlab")

    def setup(self):
        self.warmup = max(10.0, self.WARMUP * self.scale)
        self.worlds = {}
        for config in self.CONFIGS:
            self.worlds[config] = build_planetlab_iias(config, self.seed)
            yield from advance(self.worlds[config][0], self.warmup, SLICES // 2)
        self.mbps: Dict[str, float] = {}

    def run(self):
        duration = self.DURATION * self.scale
        for config, (vini, exp) in self.worlds.items():
            src = exp.network.nodes["chicago"]
            dst = exp.network.nodes["washington"]
            server = IperfTCPServer(dst.phys_node, sliver=dst.sliver)
            client = IperfTCPClient(
                src.phys_node, dst.tap_addr, sliver=src.sliver,
                streams=self.STREAMS, duration=duration, server=server,
            ).start()
            yield from advance(vini, self.warmup + duration, SLICES // 2)
            yield from advance(vini, self.warmup + duration + 1.0, 2)
            self.mbps[config] = client.result().throughput_mbps

    def sims(self) -> list:
        return [vini.sim for vini, _exp in self.worlds.values()]

    def results(self, counters):
        plvini, planetlab = self.mbps["plvini"], self.mbps["planetlab"]
        received = counters["net.tcp.bytes_received"]
        checks = [("bytes_received", received > 0, f"{received} (want > 0)")]
        # Twenty streams need some twenty round trips to leave slow
        # start; a shorter transfer says nothing about Table 4.
        if self.DURATION * self.scale >= 0.4:
            checks += [
                ("plvini_mbps", plvini >= 70.0, f"{plvini:.4g} (want >=70)"),
                ("planetlab_collapse", planetlab < plvini / 2.0,
                 f"{planetlab:.4g} (want < {plvini / 2.0:.4g})"),
            ]
        outputs = {
            "plvini_mbps": round(plvini, 6),
            "planetlab_mbps": round(planetlab, 6),
        }
        return received, outputs, checks


# ----------------------------------------------------------------------
# deter-kernel-iperf: Table 2 "Network" row, the bypass workload
# ----------------------------------------------------------------------
class DeterKernelIperf(Workload):
    """Src--Fwdr--Sink at 1 Gb/s, kernel forwarding, 20 streams x
    16 KB window for 0.75 sim-s x scale. No Click, overlay, routing
    daemon or fluid plane runs."""

    name = "deter-kernel-iperf"
    unit = "pkts"
    why = (
        "bypasses Click, overlay, routing and traffic: net.tcp, "
        "phys.link, phys.node and sim dominate, so an optimisation of "
        "the bypassed layers must predict no change here"
    )
    expected_run_s = 8.7
    expected_setup_s = 0.4
    n_checks = 3

    DURATION = 0.75
    STREAMS = 20

    def setup(self):
        self.vini = build_deter(seed=self.seed)
        self.server = IperfTCPServer(self.vini.nodes["sink"], window=IPERF_WINDOW)
        yield

    def run(self):
        self.duration = self.DURATION * self.scale
        self.client = IperfTCPClient(
            self.vini.nodes["src"], self.vini.nodes["sink"].address,
            streams=self.STREAMS, duration=self.duration, window=IPERF_WINDOW,
            server=self.server,
        ).start()
        yield from advance(self.vini, self.duration)
        yield from advance(self.vini, self.duration + 0.25, 2)

    def sims(self) -> list:
        return [self.vini.sim]

    def results(self, counters):
        mbps = self.client.result().throughput_mbps
        cpu = 100.0 * self.vini.nodes["fwdr"].cpu.busy_time / self.duration
        delivered = counters["phys.link.pkts_delivered"]
        checks = [("pkts_delivered", delivered > 0, f"{delivered} (want > 0)")]
        # Below ~0.1 sim-s the rate is the opening burst's, not the line's.
        if self.duration >= 0.1:
            checks += [
                _band("network_mbps", mbps, 900.0, 1000.0),
                _band("fwdr_cpu_pct", cpu, 40.0, 70.0),
            ]
        outputs = {"network_mbps": round(mbps, 6), "fwdr_cpu_pct": round(cpu, 6)}
        return counters["phys.link.pkts_delivered"], outputs, checks


# ----------------------------------------------------------------------
# zoo-converge: control plane only, cold start
# ----------------------------------------------------------------------
class ZooConverge(Workload):
    """``build_internet(n_as=50 x scale)`` (Gao-Rexford policy, iBGP
    full mesh) from cold start to sim t=120 s with the metrics registry
    at its default (on). ``setup`` is the build only. Routers and
    providers per tier are pinned at the generator's mid-range, so the
    seed draws the wiring (borders, chords, costs, peerings) and not the
    size: the same seed-to-seed work within a few percent."""

    name = "zoo-converge"
    unit = "routers"
    why = (
        "control plane only: routing.ospf/bgp/rib as a cold-start "
        "full-table exchange, far timers and big batches in sim, and "
        "the largest heap (GC, RSS)"
    )
    expected_run_s = 7.8
    expected_setup_s = 0.7
    n_checks = 1

    N_AS = 50
    CONVERGE_AT = 120.0
    SIZES = dict(
        tier1_routers=(24, 24), tier2_routers=(8, 8), stub_routers=(3, 3),
        tier2_providers=(2, 2), stub_providers=(2, 2),
    )

    def setup(self):
        n_as = max(4, int(round(self.N_AS * self.scale)))
        self.world = build_internet(n_as=n_as, seed=self.seed, **self.SIZES)
        yield

    def run(self):
        yield from advance(self.world, self.CONVERGE_AT, 2 * SLICES, first=1e-3)

    def sims(self) -> list:
        return [self.world.sim]

    def results(self, counters):
        routers = self.world.spec.n_routers
        converged = self.world.converged_routers()
        checks = [
            ("all_converged", converged == routers, f"{converged}/{routers}"),
        ]
        # fib_checksum goes in the digest: identical across the K
        # repeats or the digests differ.
        outputs = {
            "routers": routers,
            "converged": converged,
            "fib_checksum": self.world.fib_checksum(),
        }
        return float(converged), outputs, checks


# ----------------------------------------------------------------------
# fluid-churn: the fluid plane does the work, the packet path idles
# ----------------------------------------------------------------------
def fluid_schedule(seed: int, sessions: int, span: float):
    """``(start, src, dst, users, stop)`` on/off aggregate sessions:
    1/10/100 users each, random PoP pairs, exp(5 s) holding time,
    every session over before the span ends."""
    rng = random.Random(seed)
    schedule = []
    for _ in range(sessions):
        start = rng.uniform(0.0, span - 1.0)
        src, dst = rng.sample(ABILENE_POPS, 2)
        users = rng.choice((1, 10, 100))
        stop = min(start + rng.expovariate(1.0 / 5.0), span - 0.5)
        schedule.append((start, src, dst, users, stop))
    return schedule


class FluidChurn(Workload):
    """Abilene IIAS (40 s warm-up) + ``FluidTrafficPlane``: 6 000 x
    scale on/off aggregate sessions at 30 kb/s per user over 60 sim-s x
    scale (the arrival rate, and so the concurrency, does not change
    with scale), started with ``add_flow`` and ended with
    ``FluidFlow.stop``, plus a 4 Hz foreground ping. No session is
    finite-size (see README: ``size_bytes`` hazard)."""

    name = "fluid-churn"
    unit = "solves"
    why = (
        "about two max-min re-solves per session with the packet path "
        "nearly idle: traffic does most of the work here and none "
        "elsewhere"
    )
    expected_run_s = 8.2
    expected_setup_s = 0.6
    n_checks = 4

    WARMUP = 40.0
    SESSIONS = 6000
    SPAN = 60.0
    # Tuned once so the foreground ping's loss sits inside the band on
    # every seed tried (13-65 % on 43 seeds at scale 0.25, 43-66 % at
    # 1.0), then pinned. Loss is steep in the demand: 25 kb/s gave
    # 2-42 %, ISSUE 11's 50 kb/s 50-82 %.
    PER_USER_BPS = 30e3
    PING_INTERVAL = 0.25
    LOSS_BAND = (5.0, 80.0)

    def setup(self):
        self.span = max(3.0, self.SPAN * self.scale)
        self.schedule = fluid_schedule(
            self.seed, max(20, int(round(self.SESSIONS * self.scale))), self.span
        )
        self.vini, self.exp = build_abilene_iias(seed=self.seed)
        yield from advance(self.exp, self.WARMUP)
        self.plane = FluidTrafficPlane(self.exp)
        yield

    def _start_session(self, src: str, dst: str, users: int, stop_at: float) -> None:
        flow = self.plane.add_flow(
            src, dst, demand_bps=self.PER_USER_BPS, count=users
        )
        self.vini.sim.schedule(stop_at, flow.stop)

    def run(self):
        sim, warm = self.vini.sim, self.WARMUP
        for start, src, dst, users, stop in self.schedule:
            sim.schedule(warm + start, self._start_session, src, dst, users,
                         warm + stop)
        src = self.exp.network.nodes["washington"]
        dst = self.exp.network.nodes["seattle"]
        self.ping = Ping(
            src.phys_node, dst.tap_addr, sliver=src.sliver,
            interval=self.PING_INTERVAL,
            count=int((self.span - 2.0) / self.PING_INTERVAL),
        ).start()
        yield from advance(self.vini, warm + self.span)

    def sims(self) -> list:
        return [self.vini.sim]

    def results(self, counters):
        stats = self.plane.stats
        loss = 100.0 * (1.0 - self.ping.received / max(1, self.ping.transmitted))
        users = sum(entry[3] for entry in self.schedule)
        checks = [
            ("flows_drained", stats["flows_active"] == 0,
             f"{stats['flows_active']} active (want 0)"),
            ("flows_started", stats["flows_started"] == users,
             f"{stats['flows_started']} (want {users})"),
            # Every start and every stop dirties the plane; the engine's
            # call_unique lane may coalesce same-instant ones.
            _band("solver_runs", stats["solver_runs"], len(self.schedule),
                  2 * len(self.schedule) + 2),
        ]
        # The fluid load needs a few holding times to build up.
        if self.span >= 10.0:
            checks.append(_band("ping_loss_pct", loss, *self.LOSS_BAND))
        outputs = {
            "solver_runs": stats["solver_runs"],
            "flows_peak": stats["flows_peak"],
            "ping_loss_pct": round(loss, 6),
        }
        return counters["traffic.solver_runs"], outputs, checks


WORKLOADS = {
    cls.name: cls
    for cls in (AbileneFailover, PlanetLabIperf, DeterKernelIperf, ZooConverge,
                FluidChurn)
}


# ----------------------------------------------------------------------
# Exact sim-world counters (pull-based: reading them costs the run
# nothing until the end)
# ----------------------------------------------------------------------
# ledger name -> registry metric summed over every label set
COUNTER_SOURCES = {
    "sim.events_scheduled": "sim.events_scheduled",
    "sim.batches": "engine.batches",
    "sim.cascades": "engine.cascades",
    "phys.cpu.busy_sim_s": "cpu.busy_seconds",
    "phys.link.pkts_delivered": "link.delivered_pkts",
    "phys.link.pkts_dropped": "link.dropped_pkts",
    "click.tunnel_pkts": "click.tunnel.tx_pkts",
    "click.queue_drops": "click.queue.dropped_pkts",
    "net.tcp.bytes_received": "tcp.bytes_received",
    "net.tcp.retransmits": "tcp.retransmits",
    "net.tcp.timeouts": "tcp.timeouts",
    "routing.ospf.spf_runs": "ospf.spf_runs",
    "routing.ospf.lsa_installed": "ospf.lsa_installed",
    "routing.bgp.updates_rx": "bgp.updates_received",
    "routing.rib.changes": "rib.changes",
    "traffic.solver_runs": "traffic.solver_runs",
    "traffic.solver_iterations": "traffic.solver_iterations",
    "traffic.flows_started": "traffic.flows_started",
}
# Every exact counter of a run, in printing order; the last one is
# measured on disk by the child, not read from the registry.
COUNTER_NAMES = tuple(COUNTER_SOURCES) + ("obs.artifact_bytes",)


def read_counters(sims) -> Dict[str, float]:
    """Registry totals over ``sims`` for every ledger counter."""
    totals = {}
    for name, source in COUNTER_SOURCES.items():
        value = sum(sim.metrics.sum_values(source) for sim in sims)
        # Sim-seconds are floats; everything else is a whole count.
        totals[name] = round(value, 9) if name.endswith("_sim_s") else int(value)
    return totals
