"""The paper's evaluation, once: thirteen scenarios and one claims table.

Every table and figure of Section 5 (Tables 2-6, Figs 6/8/9), the
Section 6.1 BGP multiplexer under load and the four ablations DESIGN.md
calls out is one *scenario* below — a function named by the experiment
id that builds the world, runs it and returns ``{key: number}`` in
display units, each headline read once from the ``repro.obs`` metrics
registry (a plotted series rides along as a list of rows) — plus its
rows of ``CLAIMS``: ``(experiment, key, paper value or None, lo, hi,
unit)``. A relation between numbers (who wins, by what factor, whether
a sweep is monotone) is a derived key — ``a/b.x`` a ratio, ``a-b.x`` a
difference, ``worst_adjacent_inversion.x`` the largest step of a sweep
in the wrong direction — so every check of the evaluation is
``lo <= measured[key] <= hi``. Absolute numbers cannot match a 2006
testbed; the bands assert the paper's *shape*.

``make paper`` (``run_paper.py``) runs each scenario once and calls
:func:`record`, which writes the rounded numbers to
``results/paper.json`` and regenerates the experiment's table in
EXPERIMENTS.md between its ``<!-- paper:ID -->`` markers: the run
writes, ``git diff`` judges. ``tests/benchmarks/test_paper.py`` holds
the committed numbers to the bands, and the tables to the numbers,
without running a simulation. Seeds are fixed; nothing wall-clock is
measured (speed is the ledger's business, ``benchmarks/ledger/``).
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from pathlib import Path

from repro.core.spec import build_experiment
from repro.faults import FaultPlan, InvariantChecker
from repro.obs import ConvergenceTracker, PeriodicSampler
from repro.routing.bgp import BGPDaemon, DirectTransport
from repro.routing.bgp_mux import BGPMultiplexer
from repro.sim import Simulator
from repro.tools import (
    IperfTCPClient,
    IperfTCPServer,
    IperfUDPClient,
    IperfUDPServer,
    Ping,
    Tcpdump,
)
from repro.tools.iperf import UDP_PAYLOAD
from repro.tools.tcpdump import tcp_filter
from repro.topologies import (
    PLANETLAB_CONFIGS,
    build_abilene_iias,
    build_deter,
    build_deter_iias,
    build_planetlab,
)

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results" / "paper.json"
EXPERIMENTS_MD = REPO / "EXPERIMENTS.md"

Claim = namedtuple("Claim", "experiment key paper lo hi unit")
INF = float("inf")

CLAIMS = [Claim(*row) for row in (
    # Table 2: TCP throughput on DETER, 20 streams (paper: mean of 10
    # runs). Kernel near line rate with CPU to spare; Click CPU-bound
    # at a small fraction of it.
    ("table2", "network.mbps", 940, 800, INF, "Mb/s"),
    ("table2", "network.cpu_pct", 48, 25, 75, "%"),
    ("table2", "iias.mbps", 195, 100, 350, "Mb/s"),
    ("table2", "iias.cpu_pct", 99, 75, INF, "%"),
    ("table2", "network/iias.mbps", 4.82, 3.0, INF, "×"),
    # Table 3: ping -f on DETER. IIAS adds 0.1-0.3 ms (six Click
    # traversals of syscall tax), no loss, little variance.
    ("table3", "network.min_ms", 0.193, -INF, INF, "ms"),
    ("table3", "network.avg_ms", 0.414, -INF, INF, "ms"),
    ("table3", "network.max_ms", 0.593, -INF, INF, "ms"),
    ("table3", "network.mdev_ms", 0.089, -INF, INF, "ms"),
    ("table3", "network.loss_pct", 0, 0, 0, "%"),
    ("table3", "iias.min_ms", 0.269, -INF, INF, "ms"),
    ("table3", "iias.avg_ms", 0.547, -INF, INF, "ms"),
    ("table3", "iias.max_ms", 0.783, -INF, INF, "ms"),
    ("table3", "iias.mdev_ms", 0.080, -INF, INF, "ms"),
    ("table3", "iias.loss_pct", 0, 0, 0, "%"),
    ("table3", "iias-network.avg_ms", 0.133, 0.05, 0.40, "ms"),
    ("table3", "iias-network.mdev_ms", -0.009, -INF, 0.2, "ms"),
    # Table 4: TCP throughput on PlanetLab, mean and sd over 3 runs
    # (paper: 10). Contention collapses the default share; reservation
    # + real-time priority recover near-network rate.
    ("table4", "network.mbps", 90.8, 70, INF, "Mb/s"),
    ("table4", "network.mbps_sd", 0.53, -INF, INF, "Mb/s"),
    ("table4", "planetlab.mbps", 22.5, -INF, INF, "Mb/s"),
    ("table4", "planetlab.mbps_sd", 4.01, -INF, INF, "Mb/s"),
    ("table4", "planetlab.cpu_pct", 13, -INF, 35, "%"),
    ("table4", "plvini.mbps", 86.2, -INF, INF, "Mb/s"),
    ("table4", "plvini.mbps_sd", 0.64, -INF, INF, "Mb/s"),
    ("table4", "plvini.cpu_pct", 40, -INF, INF, "%"),
    ("table4", "network/planetlab.mbps", 4.04, 2.5, INF, "×"),
    ("table4", "plvini/planetlab.mbps", 3.83, 2.0, INF, "×"),
    ("table4", "plvini/network.mbps", 0.949, 0.7, INF, "×"),
    # Table 5: ping on PlanetLab. The default share inflates the mean
    # by milliseconds with heavy-tailed outliers; PL-VINI is nearly
    # clean.
    ("table5", "network.min_ms", 24.4, -INF, INF, "ms"),
    ("table5", "network.avg_ms", 24.5, 20, 30, "ms"),
    ("table5", "network.max_ms", 28.2, -INF, INF, "ms"),
    ("table5", "network.mdev_ms", 0.2, -INF, INF, "ms"),
    ("table5", "network.loss_pct", None, -INF, INF, "%"),
    ("table5", "planetlab.min_ms", 24.7, -INF, INF, "ms"),
    ("table5", "planetlab.avg_ms", 27.7, -INF, INF, "ms"),
    ("table5", "planetlab.max_ms", 80.9, 40, INF, "ms"),
    ("table5", "planetlab.mdev_ms", 4.8, -INF, INF, "ms"),
    ("table5", "planetlab.loss_pct", None, -INF, INF, "%"),
    ("table5", "plvini.min_ms", 24.7, -INF, INF, "ms"),
    ("table5", "plvini.avg_ms", 25.1, -INF, INF, "ms"),
    ("table5", "plvini.max_ms", 28.6, -INF, INF, "ms"),
    ("table5", "plvini.mdev_ms", 0.38, -INF, INF, "ms"),
    ("table5", "plvini.loss_pct", None, -INF, INF, "%"),
    ("table5", "planetlab-network.avg_ms", 3.2, 1.0, INF, "ms"),
    ("table5", "planetlab/network.mdev_ms", 24, 5, INF, "×"),
    ("table5", "plvini-network.avg_ms", 0.6, -INF, 2.0, "ms"),
    ("table5", "planetlab/plvini.mdev_ms", 12.6, 4, INF, "×"),
    ("table5", "planetlab/plvini.max_ms", 2.83, 1.5, INF, "×"),
    # Table 6: UDP jitter on PlanetLab, mean and sd over CBR streams of
    # 1-50 Mb/s. The default share is the worst by a wide margin.
    ("table6", "network.jitter_ms", 0.27, -INF, INF, "ms"),
    ("table6", "network.jitter_sd_ms", 0.16, -INF, INF, "ms"),
    ("table6", "planetlab.jitter_ms", 2.4, -INF, INF, "ms"),
    ("table6", "planetlab.jitter_sd_ms", 3.7, -INF, INF, "ms"),
    ("table6", "plvini.jitter_ms", 1.3, -INF, INF, "ms"),
    ("table6", "plvini.jitter_sd_ms", 0.9, -INF, INF, "ms"),
    ("table6", "plvini/planetlab.jitter_ms", 0.54, -INF, 0.8, "×"),
    ("table6", "planetlab/network.jitter_ms", 8.9, 1.5, INF, "×"),
    ("table6", "planetlab-plvini.jitter_sd_ms", 2.8, 0, INF, "ms"),
    # Fig. 6: loss vs offered UDP rate. The default share loses badly
    # at high rates (paper ~14 % at 45 Mb/s) and the loss grows with
    # the rate; PL-VINI stays with the network under 2 %.
    ("fig6", "network@5mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "network@15mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "network@25mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "network@35mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "network@45mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "planetlab@5mbps.loss_pct", None, -INF, INF, "%"),
    ("fig6", "planetlab@15mbps.loss_pct", None, -INF, INF, "%"),
    ("fig6", "planetlab@25mbps.loss_pct", None, -INF, INF, "%"),
    ("fig6", "planetlab@35mbps.loss_pct", None, -INF, INF, "%"),
    ("fig6", "planetlab@45mbps.loss_pct", 14, 4.0, INF, "%"),
    ("fig6", "plvini@5mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "plvini@15mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "plvini@25mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "plvini@35mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "plvini@45mbps.loss_pct", None, -INF, 2.0, "%"),
    ("fig6", "planetlab@45mbps-planetlab@5mbps.loss_pct", None, 2.0, INF, "%"),
    # Fig. 8: ping D.C. -> Seattle across the Denver--Kansas City
    # failure (t=10 s, restored t=34 s). Three RTT plateaus; OSPF
    # repairs within hello-based detection. The walked blackhole window
    # opens at the instant the vlink flips, closes between the
    # episode's first and last RIB change, and matches the reply gap up
    # to probe quantisation (two intervals plus the in-flight RTT).
    ("fig8", "before_failure.rtt_ms", 76, 70, 82, "ms"),
    ("fig8", "after_reroute.rtt_ms", 93, 86, 105, "ms"),
    ("fig8", "after_recovery.rtt_ms", 76, 70, 82, "ms"),
    ("fig8", "outage_s", 8, 4.0, 12.0, "s"),
    ("fig8", "probes_lost", None, 3, INF, ""),
    ("fig8", "episodes", None, 2, 2, ""),
    ("fig8", "first_reroute_s", 7, 4.0, 12.0, "s"),
    ("fig8", "route_stable_s", None, -INF, INF, "s"),
    ("fig8", "blackhole_s", 8, -INF, INF, "s"),
    ("fig8", "blackhole_opens-fault_s", None, -1e-9, 1e-9, "s"),
    ("fig8", "blackhole-first_reroute_s", None, 0, INF, "s"),
    ("fig8", "route_stable-blackhole_s", None, -1e-9, INF, "s"),
    ("fig8", "outage-blackhole_s", None, -0.75, 0.75, "s"),
    ("fig8", "invariant_violations", None, 0, 0, ""),
    # Fig. 9: a window-limited TCP transfer across the same failure.
    # Delivery stalls at the failure, resumes once OSPF has converged
    # (the tracker's route-restored instant falls inside the tcpdump
    # delivery gap), then ramps back in slow-start restart.
    ("fig9", "stall_start_s", 10, 9.0, 11.5, "s"),
    ("fig9", "route_restored_s", 18, -INF, INF, "s"),
    ("fig9", "resume_s", 18, 15.0, 21.0, "s"),
    ("fig9", "pre_failure_mbps", 3, 1.0, 4.0, "Mb/s"),
    ("fig9", "tcp_timeouts", None, 1, INF, ""),
    ("fig9", "tcp_retransmits", None, 1, INF, ""),
    ("fig9", "segments@resume+1s", None, 1, INF, ""),
    ("fig9", "segments@resume+2s", None, -INF, INF, ""),
    ("fig9", "segments@resume+3s", None, -INF, INF, ""),
    ("fig9", "segments@resume+2s-segments@resume+1s", None, 1, INF, ""),
    ("fig9", "total_mb", 12, -INF, INF, "MB"),
    ("fig9", "episodes", None, 2, 2, ""),
    ("fig9", "first_reroute_s", None, 4.0, INF, "s"),
    ("fig9", "blackhole_opens-fault_s", None, -1e-9, 1e-9, "s"),
    ("fig9", "route_restored-first_reroute_s", None, 0, INF, "s"),
    ("fig9", "route_restored-stall_start_s", None, 0, INF, "s"),
    ("fig9", "resume-route_restored_s", None, -1e-9, INF, "s"),
    ("fig9", "invariant_violations", None, 0, 0, ""),
    # Section 6.1: six experiments behind one external session.
    # Ownership filters and rate limits contain the misbehaving ones,
    # the quiet one is untouched, no hijack reaches the upstream, and
    # MRAI keeps the external session to one Update per 5 s window.
    ("bgp_mux", "quiet-exp.updates_in", None, -INF, INF, ""),
    ("bgp_mux", "quiet-exp.filtered", None, 0, 0, ""),
    ("bgp_mux", "quiet-exp.ratelimited", None, 0, 0, ""),
    ("bgp_mux", "slow-flap.updates_in", None, -INF, INF, ""),
    ("bgp_mux", "slow-flap.filtered", None, -INF, INF, ""),
    ("bgp_mux", "slow-flap.ratelimited", None, 0, 0, ""),
    ("bgp_mux", "mid-flap.updates_in", None, -INF, INF, ""),
    ("bgp_mux", "mid-flap.filtered", None, -INF, INF, ""),
    ("bgp_mux", "mid-flap.ratelimited", None, 1, INF, ""),
    ("bgp_mux", "fast-flap.updates_in", None, -INF, INF, ""),
    ("bgp_mux", "fast-flap.filtered", None, -INF, INF, ""),
    ("bgp_mux", "fast-flap.ratelimited", None, 1, INF, ""),
    ("bgp_mux", "hijacker.updates_in", None, -INF, INF, ""),
    ("bgp_mux", "hijacker.filtered", None, 1, INF, ""),
    ("bgp_mux", "hijacker.ratelimited", None, -INF, INF, ""),
    ("bgp_mux", "wild-hijacker.updates_in", None, -INF, INF, ""),
    ("bgp_mux", "wild-hijacker.filtered", None, 1, INF, ""),
    ("bgp_mux", "wild-hijacker.ratelimited", None, -INF, INF, ""),
    ("bgp_mux", "clients", None, 6, 6, ""),
    ("bgp_mux", "client_updates_in", None, -INF, INF, ""),
    ("bgp_mux", "filtered", None, -INF, INF, ""),
    ("bgp_mux", "ratelimited", None, -INF, INF, ""),
    ("bgp_mux", "external_updates_out", None, -INF, 20, ""),
    ("bgp_mux", "client_updates_in_per_s", None, -INF, INF, "/s"),
    ("bgp_mux", "external_updates_out_per_s", None, -INF, INF, "/s"),
    ("bgp_mux", "upstream.routes", None, 64, INF, ""),
    ("bgp_mux", "upstream.hijacked_routes", None, 0, 0, ""),
    ("bgp_mux", "upstream.owned_blocks_via_mux", None, 3, 3, ""),
    # Section 5.1.1's "reducing this overhead is future work": Click's
    # forwarding capacity falls monotonically with the per-syscall
    # cost, which dominates the per-packet cost at this packet size.
    ("syscall_cost", "click@1us.mbps", None, -INF, INF, "Mb/s"),
    ("syscall_cost", "click@2.5us.mbps", None, -INF, INF, "Mb/s"),
    ("syscall_cost", "click@5us.mbps", None, -INF, INF, "Mb/s"),
    ("syscall_cost", "click@10us.mbps", None, -INF, INF, "Mb/s"),
    ("syscall_cost", "click@1us/click@10us.mbps", None, 1.5, INF, "×"),
    ("syscall_cost", "worst_adjacent_inversion.mbps", None, -INF, 0, "Mb/s"),
    # Section 4.1.2's two knobs apart, on the Table 4 workload: the
    # reservation buys throughput, real-time priority buys latency
    # stability, both together match or beat each alone.
    ("cpu_isolation", "none.mbps", None, -INF, INF, "Mb/s"),
    ("cpu_isolation", "none.avg_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "none.mdev_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "none.max_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "reservation.mbps", None, -INF, INF, "Mb/s"),
    ("cpu_isolation", "reservation.avg_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "reservation.mdev_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "reservation.max_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "realtime.mbps", None, -INF, INF, "Mb/s"),
    ("cpu_isolation", "realtime.avg_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "realtime.mdev_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "realtime.max_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "both.mbps", None, -INF, INF, "Mb/s"),
    ("cpu_isolation", "both.avg_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "both.mdev_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "both.max_ms", None, -INF, INF, "ms"),
    ("cpu_isolation", "reservation/none.mbps", None, 1.5, INF, "×"),
    ("cpu_isolation", "none/realtime.mdev_ms", None, 2, INF, "×"),
    ("cpu_isolation", "both/reservation.mbps", None, 0.8, INF, "×"),
    ("cpu_isolation", "both/realtime.mdev_ms", None, -INF, 1.5, "×"),
    # Fig. 8's footnote 3: the outage grows with the dead interval (the
    # hello phase adds about one hello of noise, so adjacent settings
    # may tie within 2 s), sits within [hello, dead + convergence] for
    # the paper's 5/10, and Section 6.1's upcalls bypass it entirely.
    ("ospf_timers", "hello1_dead4.outage_s", None, -INF, INF, "s"),
    ("ospf_timers", "hello2_dead8.outage_s", None, -INF, INF, "s"),
    ("ospf_timers", "hello5_dead10.outage_s", 7, 4.0, 13.0, "s"),
    ("ospf_timers", "hello10_dead40.outage_s", None, -INF, INF, "s"),
    ("ospf_timers", "hello5_dead10_upcall.outage_s", None, -INF, 1.0, "s"),
    ("ospf_timers", "hello10_dead40/hello1_dead4.outage_s", None, 2, INF, "×"),
    ("ospf_timers", "worst_adjacent_inversion.outage_s", None, -INF, 2.0, "s"),
    ("ospf_timers", "invariant_violations", None, 0, 0, ""),
    # Section 6.2's non-work-conserving scheduler: a fair-share slice's
    # delivered rate swings with the background load; a slice capped at
    # its reservation holds steady, below the uncapped idle rate.
    ("nwc_scheduler", "fair_share.idle_mbps", None, -INF, INF, "Mb/s"),
    ("nwc_scheduler", "fair_share.busy_mbps", None, -INF, INF, "Mb/s"),
    ("nwc_scheduler", "fair_share.swing_pct", None, 15, INF, "%"),
    ("nwc_scheduler", "capped.idle_mbps", None, -INF, INF, "Mb/s"),
    ("nwc_scheduler", "capped.busy_mbps", None, -INF, INF, "Mb/s"),
    ("nwc_scheduler", "capped.swing_pct", None, -10, 10, "%"),
    ("nwc_scheduler", "capped/fair_share.swing_pct", None, -0.5, 0.5, "×"),
    ("nwc_scheduler", "capped-fair_share.idle_mbps", None, -INF, 0, "Mb/s"),
)]


# ----------------------------------------------------------------------
# Measurement: where the tools run, and one registry read per headline
# ----------------------------------------------------------------------
def _ends(vini, exp, src, sink):
    """(src node, src sliver, sink node, sink sliver, sink address) for
    the tools: slivers and the tap address inside an overlay, the bare
    machines when ``exp`` is None (the "Network" configuration)."""
    if exp is None:
        return vini.nodes[src], None, vini.nodes[sink], None, vini.nodes[sink].address
    a, b = exp.network.nodes[src], exp.network.nodes[sink]
    return a.phys_node, a.sliver, b.phys_node, b.sliver, b.tap_addr


def _deter(seed, overlay):
    """The DETER world as ``(vini, exp)``: bare machines, or IIAS after
    30 s of OSPF convergence."""
    if not overlay:
        return build_deter(seed=seed), None
    vini, exp = build_deter_iias(seed=seed)
    exp.run(until=30.0)
    return vini, exp


DETER_CONFIGS = {"network": False, "iias": True}


def _planetlab(config, seed):
    """The PlanetLab world in one of the paper's three configurations,
    with the Chicago -> Washington tool endpoints."""
    vini, exp = build_planetlab(seed, **PLANETLAB_CONFIGS[config])
    return vini, exp, _ends(vini, exp, "chicago", "washington")


def _click_cpu(exp, name):
    """The instrument holding the CPU seconds of ``name``'s Click."""
    process = exp.network.nodes[name].click_process
    return "cpu.process_seconds", dict(
        cpu=f"{process.node.name}.cpu", process=process.metric_label)


def _iperf_tcp(vini, ends, duration, cpu=None):
    """20 parallel iperf TCP streams (iperf 1.7's default 16 KB window
    each; twenty of them fill a LAN path): Mb/s delivered at the server
    and, given a CPU-seconds instrument as ``(name, labels)``, its mean
    CPU % over the test."""
    src, src_sliver, sink, sink_sliver, addr = ends
    metrics = vini.sim.metrics
    cpu_before = metrics.value(cpu[0], **cpu[1]) if cpu else 0.0
    server = IperfTCPServer(sink, sliver=sink_sliver)
    client = IperfTCPClient(src, addr, sliver=src_sliver, streams=20,
                            duration=duration, server=server).start()
    vini.run(until=vini.sim.now + duration + 1.0)
    received = metrics.value("iperf.tcp.bytes_received", node=sink.name, port=5001)
    mbps = received * 8 / (client.finished_at - client.started_at) / 1e6
    if cpu is None:
        return mbps, None
    return mbps, 100.0 * (metrics.value(cpu[0], **cpu[1]) - cpu_before) / duration


def _iperf_udp(vini, ends, rate_bps, duration, **server_kwargs):
    """One iperf UDP CBR stream: (datagrams sent, received, RFC 1889
    jitter in seconds at the server)."""
    src, src_sliver, sink, sink_sliver, addr = ends
    server = IperfUDPServer(sink, sliver=sink_sliver, **server_kwargs)
    IperfUDPClient(src, addr, rate_bps=rate_bps, sliver=src_sliver,
                   duration=duration, server=server).start()
    vini.run(until=vini.sim.now + duration + 2.0)
    metrics = vini.sim.metrics
    return (metrics.value("iperf.udp.sent", node=src.name, port=5002),
            metrics.value("iperf.udp.received", node=sink.name, port=5002),
            metrics.value("iperf.udp.jitter", node=sink.name, port=5002))


def _delivered_mbps(received, duration):
    return received * UDP_PAYLOAD * 8 / duration / 1e6


def _ping_labels(ping):
    return dict(src=ping.node.name, dst=str(ping.dst), ident=ping.ident)


def _ping(vini, ends, count, interval, drain):
    """ping's summary line in ms, from the ``ping.*`` instruments."""
    src, src_sliver, _sink, _sink_sliver, addr = ends
    ping = Ping(src, addr, sliver=src_sliver, interval=interval,
                count=count).start()
    vini.run(until=vini.sim.now + count * interval + drain)
    metrics = vini.sim.metrics
    labels = _ping_labels(ping)
    sent = metrics.value("ping.transmitted", **labels)
    rtt = metrics.get("ping.rtt", **labels)
    return {
        "min_ms": rtt.min * 1e3, "avg_ms": rtt.mean * 1e3,
        "max_ms": rtt.max * 1e3, "mdev_ms": rtt.stddev * 1e3,
        "loss_pct": 100.0 * (sent - metrics.value("ping.received", **labels)) / sent,
    }


def _under(name, row):
    return {f"{name}.{key}": value for key, value in row.items()}


def _mean_sd(values):
    mean = sum(values) / len(values)
    return mean, (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def _worst_inversion(values, rising):
    """Largest adjacent step of a sweep in the wrong direction (<= 0
    when the sweep is monotone)."""
    sign = 1 if rising else -1
    return max(sign * (a - b) for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# Section 5.1: the microbenchmarks
# ----------------------------------------------------------------------
def table2():
    out = {}
    for config, overlay in DETER_CONFIGS.items():
        vini, exp = _deter(1, overlay)
        cpu = (_click_cpu(exp, "fwdr") if overlay
               else ("cpu.busy_seconds", dict(cpu="fwdr.cpu")))
        out[f"{config}.mbps"], out[f"{config}.cpu_pct"] = _iperf_tcp(
            vini, _ends(vini, exp, "src", "sink"), 1.5, cpu)
    out["network/iias.mbps"] = out["network.mbps"] / out["iias.mbps"]
    return out


def table3():
    out = {}
    for config, overlay in DETER_CONFIGS.items():
        vini, exp = _deter(2, overlay)
        out.update(_under(config, _ping(  # ping -f
            vini, _ends(vini, exp, "src", "sink"), 2000, 0.001, drain=2.0)))
    for key in ("avg_ms", "mdev_ms"):
        out[f"iias-network.{key}"] = out[f"iias.{key}"] - out[f"network.{key}"]
    return out


def table4():
    out = {}
    for config in PLANETLAB_CONFIGS:
        rates, cpus = [], []
        for run in range(3):
            vini, exp, ends = _planetlab(config, seed=100 * run + 7)
            cpu = _click_cpu(exp, "newyork") if exp else None
            mbps, cpu_pct = _iperf_tcp(vini, ends, 4.0, cpu)
            rates.append(mbps)
            cpus.append(cpu_pct)
        out[f"{config}.mbps"], out[f"{config}.mbps_sd"] = _mean_sd(rates)
        if None not in cpus:  # "network" has no Click to charge
            out[f"{config}.cpu_pct"] = sum(cpus) / len(cpus)
    for a, b in (("network", "planetlab"), ("plvini", "planetlab"),
                 ("plvini", "network")):
        out[f"{a}/{b}.mbps"] = out[f"{a}.mbps"] / out[f"{b}.mbps"]
    return out


def table5():
    out = {}
    for config in PLANETLAB_CONFIGS:
        vini, _exp, ends = _planetlab(config, seed=17)
        out.update(_under(config, _ping(vini, ends, 400, 0.1, drain=5.0)))
    for a, b in (("planetlab", "network"), ("plvini", "network")):
        out[f"{a}-{b}.avg_ms"] = out[f"{a}.avg_ms"] - out[f"{b}.avg_ms"]
    for a, b, key in (("planetlab", "network", "mdev_ms"),
                      ("planetlab", "plvini", "mdev_ms"),
                      ("planetlab", "plvini", "max_ms")):
        out[f"{a}/{b}.{key}"] = out[f"{a}.{key}"] / out[f"{b}.{key}"]
    return out


def table6():
    out = {}
    for config in PLANETLAB_CONFIGS:
        jitters = []
        for index, mbps in enumerate((1, 5, 10, 20, 30, 40, 50)):
            vini, _exp, ends = _planetlab(config, seed=23 + index)
            _sent, _received, jitter = _iperf_udp(vini, ends, mbps * 1e6, 3.0)
            jitters.append(jitter * 1e3)
        out[f"{config}.jitter_ms"], out[f"{config}.jitter_sd_ms"] = _mean_sd(jitters)
    out["plvini/planetlab.jitter_ms"] = (
        out["plvini.jitter_ms"] / out["planetlab.jitter_ms"])
    out["planetlab/network.jitter_ms"] = (
        out["planetlab.jitter_ms"] / out["network.jitter_ms"])
    out["planetlab-plvini.jitter_sd_ms"] = (
        out["planetlab.jitter_sd_ms"] - out["plvini.jitter_sd_ms"])
    return out


def fig6():
    out = {}
    for config in PLANETLAB_CONFIGS:
        for index, mbps in enumerate((5, 15, 25, 35, 45)):
            vini, _exp, ends = _planetlab(config, seed=31 + index)
            sent, received, _jitter = _iperf_udp(vini, ends, mbps * 1e6, 3.0)
            out[f"{config}@{mbps}mbps.loss_pct"] = (
                100.0 * max(0, sent - received) / sent)
    out["planetlab@45mbps-planetlab@5mbps.loss_pct"] = (
        out["planetlab@45mbps.loss_pct"] - out["planetlab@5mbps.loss_pct"])
    return out


# ----------------------------------------------------------------------
# Section 5.2: the controlled failure on the Abilene mirror
# ----------------------------------------------------------------------
WARMUP = 40.0  # OSPF converges; experiment time starts here
FAIL_AT = 10.0
RECOVER_AT = 34.0


def _abilene_failover(seed, name):
    """The Abilene mirror, warmed up, with the Denver--Kansas City
    virtual link scheduled to fail at t=10 s and return at t=34 s, an
    InvariantChecker riding the run and a ConvergenceTracker walking
    the measured D.C. -> Seattle path."""
    vini, exp = build_abilene_iias(seed=seed)
    checker = InvariantChecker(exp).install()
    tracker = ConvergenceTracker(exp).install()
    tracker.watch_path("washington", "seattle")
    exp.run(until=WARMUP)
    exp.apply_faults(
        FaultPlan(name).fail_link(FAIL_AT, "denver", "kansascity",
                                  duration=RECOVER_AT - FAIL_AT),
        offset=WARMUP)
    ends = _ends(vini, exp, "washington", "seattle")
    return vini, checker, tracker, ends


def _convergence(checker, tracker):
    """The failure episode, the blackhole window it opened on the
    measured path, and the keys both figures record about them."""
    failure = tracker.episodes[0]
    blackhole = [w for w in tracker.blackhole_windows("washington", "seattle")
                 if w["start"] >= WARMUP][0]
    checker.check_now()
    return failure, blackhole, {
        "episodes": len(tracker.episodes),
        "first_reroute_s": failure.detection_s,
        "blackhole_opens-fault_s": blackhole["start"] - (WARMUP + FAIL_AT),
        "invariant_violations": len(checker.violations),
    }


def fig8():
    end_at, interval = 55.0, 0.25  # denser than the paper's 1 Hz
    vini, checker, tracker, ends = _abilene_failover(8, "fig8")
    src, src_sliver, _sink, _sink_sliver, addr = ends
    ping = Ping(src, addr, sliver=src_sliver, interval=interval,
                count=int(end_at / interval)).start()
    # 1 Hz snapshots of the RTT histogram; a phase mean is the windowed
    # delta between two of them (reply-arrival basis: a probe counts in
    # the window its reply lands in).
    sampler = PeriodicSampler(vini.sim, 1.0, name="fig8")
    sampler.watch("rtt", metric=ping.rtt_hist).start()
    vini.run(until=WARMUP + end_at + 2.0)
    sampler.stop(final=True)
    failure, blackhole, out = _convergence(checker, tracker)
    for phase, t0, t1 in (("before_failure", 0.0, FAIL_AT),
                          ("after_reroute", 20.0, RECOVER_AT),
                          ("after_recovery", 40.0, end_at + 2.0)):
        out[f"{phase}.rtt_ms"] = 1e3 * sampler.windowed_mean(
            "rtt", WARMUP + t0, WARMUP + t1)
    series = [(t - WARMUP, rtt) for t, rtt in ping.rtt_series()]
    answered = sorted(t for t, _rtt in series)
    out["outage_s"] = max(
        (b - a for a, b in zip(answered, answered[1:]) if b - a > 1.0),
        default=0.0)
    metrics, labels = vini.sim.metrics, _ping_labels(ping)
    out["probes_lost"] = (metrics.value("ping.transmitted", **labels)
                          - metrics.value("ping.received", **labels))
    out["route_stable_s"] = failure.convergence_s
    out["blackhole_s"] = blackhole["end"] - blackhole["start"]
    out["blackhole-first_reroute_s"] = out["blackhole_s"] - out["first_reroute_s"]
    out["route_stable-blackhole_s"] = out["route_stable_s"] - out["blackhole_s"]
    out["outage-blackhole_s"] = out["outage_s"] - out["blackhole_s"]
    out["rtt_series_t_ms"] = [[t, rtt * 1e3] for t, rtt in series]
    return out


def fig9():
    end_at = 50.0
    vini, checker, tracker, ends = _abilene_failover(9, "fig9")
    src, src_sliver, sink, sink_sliver, addr = ends
    dump = Tcpdump(sink, filter=tcp_filter(5001), direction="in").start()
    # One bulk stream, window-limited by iperf 1.7's default 16 KB.
    server = IperfTCPServer(sink, sliver=sink_sliver)
    metrics = vini.sim.metrics
    before = {name: metrics.value(name, node=src.name)
              for name in ("tcp.timeouts", "tcp.retransmits")}
    IperfTCPClient(src, addr, sliver=src_sliver, streams=1, duration=end_at,
                   server=server).start()
    vini.run(until=WARMUP + end_at + 2.0)
    _failure, blackhole, out = _convergence(checker, tracker)
    # The bulk stream is the sender's only TCP connection, so the
    # node-level stack counters are the stream's own.
    for name, value in before.items():
        out[name.replace(".", "_")] = metrics.value(name, node=src.name) - value
    out["total_mb"] = metrics.value(
        "iperf.tcp.bytes_received", node=sink.name, port=5001) / 1e6
    arrivals = [(t - WARMUP, seq, size) for t, seq, size in dump.tcp_arrivals()]
    times = [t for t, _seq, _size in arrivals]
    out["stall_start_s"], stall = max(
        ((a, b - a) for a, b in zip(times, times[1:])), key=lambda gap: gap[1])
    resume = out["resume_s"] = out["stall_start_s"] + stall
    out["route_restored_s"] = blackhole["end"] - WARMUP
    out["pre_failure_mbps"] = sum(
        size for t, _seq, size in arrivals if t < FAIL_AT) * 8 / FAIL_AT / 1e6
    # Slow-start restart: segments delivered in each of the first three
    # seconds after delivery resumes.
    for k in range(3):
        out[f"segments@resume+{k + 1}s"] = sum(
            1 for t in times if resume + k <= t < resume + k + 1)
    out["segments@resume+2s-segments@resume+1s"] = (
        out["segments@resume+2s"] - out["segments@resume+1s"])
    out["route_restored-first_reroute_s"] = (
        out["route_restored_s"] - FAIL_AT - out["first_reroute_s"])
    out["route_restored-stall_start_s"] = (
        out["route_restored_s"] - out["stall_start_s"])
    out["resume-route_restored_s"] = resume - out["route_restored_s"]
    # Fig. 9(a): cumulative megabytes over time, ~120 points; Fig. 9(b):
    # the byte positions arriving around the resumption.
    total, cumulative = 0, []
    for t, _seq, size in arrivals:
        total += size
        cumulative.append([t, total / 1e6])
    out["cumulative_t_mb"] = cumulative[::max(1, len(cumulative) // 120)]
    out["resume_arrivals_t_seq"] = [
        [t, seq] for t, seq, _size in arrivals
        if resume - 0.5 <= t <= resume + 2.0]
    return out


# ----------------------------------------------------------------------
# Section 6.1: the BGP multiplexer under experiment update load
# ----------------------------------------------------------------------
#: (name, asn, own /24, flap period in s or None, hijack target or None)
#: A flapper announces once per two periods (withdraw, then re-announce)
#: and the mux rate limit is 1 announcement/s with burst 3, so the
#: 0.15 s and 0.3 s flappers must be rate-limited; the 5 s one must not.
MUX_CLIENTS = [
    ("quiet-exp", 65101, "198.18.1.0/24", None, None),
    ("slow-flap", 65102, "198.18.2.0/24", 5.0, None),
    ("mid-flap", 65103, "198.18.3.0/24", 0.3, None),
    ("fast-flap", 65104, "198.18.4.0/24", 0.15, None),
    ("hijacker", 65105, "198.18.5.0/24", 2.0, "198.18.1.128/25"),
    ("wild-hijacker", 65106, "198.18.6.0/24", 2.0, "8.8.8.0/24"),
]


def bgp_mux():
    warmup, churn_end, end_at = 10.0, 70.0, 90.0
    sim = Simulator(seed=61)
    mux = BGPMultiplexer(sim, asn=64512, router_id="198.18.0.1",
                         vini_block="198.18.0.0/16")
    upstream = BGPDaemon(sim, 7018, "12.0.0.1", name="upstream")
    t_up, t_mux = DirectTransport.pair(sim, delay=0.020)
    upstream.add_session(t_up, 64512, mrai=0.5).start()
    mux.attach_external(t_mux, 7018)
    daemons = {}
    for name, asn, block, _period, _hijack in MUX_CLIENTS:
        daemon = BGPDaemon(sim, asn, block.replace("0/24", "1"), name=name)
        t_exp, t_port = DirectTransport.pair(sim, delay=0.005)
        daemon.add_session(t_exp, 64512, mrai=0.1).start()
        mux.add_client(name, t_port, asn, allowed=block,
                       max_update_rate=1.0, burst=3.0)
        daemons[name] = daemon
    for index in range(64):  # the upstream's view of "the Internet"
        upstream.originate(f"10.{index}.0.0/16")
    sim.run(until=warmup)

    def flapper(daemon, block, period, hijack):
        announced = True

        def flap():
            nonlocal announced
            if sim.now >= churn_end:
                if not announced:
                    daemon.originate(block)  # leave the prefix announced
                return
            if announced:
                daemon.withdraw_origin(block)
            else:
                daemon.originate(block)
                if hijack is not None:
                    daemon.originate(hijack)
            announced = not announced
            sim.at(period, flap)

        return flap

    for name, _asn, block, period, hijack in MUX_CLIENTS:
        daemons[name].originate(block)
        if period is not None:
            sim.at(period, flapper(daemons[name], block, period, hijack))
    sim.run(until=end_at)

    metrics = sim.metrics
    out = {}
    for name, *_rest in MUX_CLIENTS:
        out[f"{name}.updates_in"] = metrics.value(
            "bgp.updates_received", daemon="bgp-mux", peer=name)
        out[f"{name}.filtered"] = metrics.value("bgp.mux_filtered", client=name)
        out[f"{name}.ratelimited"] = metrics.value(
            "bgp.mux_ratelimited", client=name)
    out["clients"] = metrics.value("bgp.mux_clients")
    out["client_updates_in"] = sum(
        out[f"{name}.updates_in"] for name, *_rest in MUX_CLIENTS)
    out["filtered"] = metrics.sum_values("bgp.mux_filtered")
    out["ratelimited"] = metrics.sum_values("bgp.mux_ratelimited")
    out["external_updates_out"] = metrics.value(
        "bgp.updates_sent", daemon="bgp-mux", peer="external")
    for key in ("client_updates_in", "external_updates_out"):
        out[f"{key}_per_s"] = out[key] / (churn_end - warmup)
    out["upstream.routes"] = metrics.value("bgp.loc_rib_routes", daemon="upstream")
    # The hijacked blocks never reach the upstream from the hijackers;
    # the victim's and the hijackers' own blocks do, through the mux.
    wild = upstream.best("8.8.8.0/24")
    out["upstream.hijacked_routes"] = (
        int(upstream.best("198.18.1.128/25") is not None)
        + int(wild is not None and 65106 in wild.as_path))
    out["upstream.owned_blocks_via_mux"] = sum(
        1 for block in ("198.18.1.0/24", "198.18.5.0/24", "198.18.6.0/24")
        if (route := upstream.best(block)) is not None
        and route.as_path[0] == 64512)
    return out


# ----------------------------------------------------------------------
# Ablations: design choices the paper calls out
# ----------------------------------------------------------------------
def syscall_cost():
    out, rates = {}, []
    for name, cost in (("click@1us", 1e-6), ("click@2.5us", 2.5e-6),
                       ("click@5us", 5e-6), ("click@10us", 10e-6)):
        vini, exp = build_deter_iias(seed=13)
        for vnode in exp.network.nodes.values():
            vnode.click.syscall_cost = cost
        exp.run(until=30.0)
        # 400 Mb/s overloads the forwarder: what arrives is its capacity.
        _sent, received, _jitter = _iperf_udp(
            vini, _ends(vini, exp, "src", "sink"), 400e6, 1.0,
            rcvbuf=512 * 1024)
        rates.append(_delivered_mbps(received, 1.0))
        out[f"{name}.mbps"] = rates[-1]
    out["click@1us/click@10us.mbps"] = rates[0] / rates[-1]
    out["worst_adjacent_inversion.mbps"] = _worst_inversion(rates, rising=False)
    return out


def cpu_isolation():
    out = {}
    for config, knobs in (
            ("none", {}),
            ("reservation", dict(cpu_reservation=0.25)),
            ("realtime", dict(realtime=True)),
            ("both", dict(cpu_reservation=0.25, realtime=True))):
        vini, exp = build_planetlab(41, **knobs)
        ends = _ends(vini, exp, "chicago", "washington")
        out[f"{config}.mbps"], _cpu = _iperf_tcp(vini, ends, 4.0)
        # The latency probe follows the bulk test so that it is not
        # self-congested.
        row = _ping(vini, ends, 200, 0.05, drain=2.0)
        out.update(_under(config, {
            key: row[key] for key in ("avg_ms", "mdev_ms", "max_ms")}))
    for a, b, key in (("reservation", "none", "mbps"),
                      ("none", "realtime", "mdev_ms"),
                      ("both", "reservation", "mbps"),
                      ("both", "realtime", "mdev_ms")):
        out[f"{a}/{b}.{key}"] = out[f"{a}.{key}"] / out[f"{b}.{key}"]
    return out


# The ablation's world as a Section 6.2 experiment specification: a
# square whose a-b-d side is preferred over a-c-d.
SQUARE = {
    "name": "iias",
    "slice": {"realtime": True},
    "physical": {
        "nodes": ["a", "b", "c", "d"],
        "links": [{"a": a, "b": b, "delay": 0.005}
                  for a, b in ("ab", "bd", "ac", "cd")],
    },
    "topology": {
        "nodes": {name: name for name in "abcd"},
        "links": [{"a": "a", "b": "b"}, {"a": "b", "b": "d"},
                  {"a": "a", "b": "c", "cost": 3},
                  {"a": "c", "b": "d", "cost": 3}],
    },
}


def _square_outage(seed, hello, dead, upcalls):
    """Seconds of data-plane outage seen by a 10 Hz ping a -> d when
    the a--b link of ``SQUARE`` fails: the virtual link, or with
    ``upcalls`` the physical one under it, which Section 6.1's upcall
    design reports without waiting for the dead interval. Returns
    (outage, invariant violations)."""
    vini, exp = build_experiment(dict(
        SQUARE, seed=seed, upcalls=upcalls,
        routing={"hello_interval": hello, "dead_interval": dead}))
    checker = InvariantChecker(exp).install()
    warmup = max(30.0, 6 * hello)
    exp.run(until=warmup)
    src, src_sliver, _sink, _sink_sliver, addr = _ends(vini, exp, "a", "d")
    ping = Ping(src, addr, sliver=src_sliver, interval=0.1, count=2000).start()
    fail_time = warmup + 2.0
    if upcalls:
        vini.sim.schedule(fail_time, vini.link_between("a", "b").fail)
    else:
        vini.sim.schedule(fail_time, exp.network.fail_link, "a", "b")
    vini.run(until=fail_time + dead + 20.0)
    ping.stop()
    checker.check_now()
    replies = sorted(t + rtt for t, rtt in ping.rtt_series())
    first = next((t for t in replies if t > fail_time), INF)
    return first - fail_time, len(checker.violations)


def ospf_timers():
    out, outages, violations = {}, [], 0
    for hello, dead in ((1, 4), (2, 8), (5, 10), (10, 40)):
        outage, found = _square_outage(hello * 10, float(hello), float(dead),
                                       upcalls=False)
        out[f"hello{hello}_dead{dead}.outage_s"] = outage
        outages.append(outage)
        violations += found
    out["hello5_dead10_upcall.outage_s"], found = _square_outage(
        99, 5.0, 10.0, upcalls=True)
    out["hello10_dead40/hello1_dead4.outage_s"] = outages[-1] / outages[0]
    out["worst_adjacent_inversion.outage_s"] = _worst_inversion(
        outages, rising=True)
    out["invariant_violations"] = violations + found
    return out


def nwc_scheduler():
    out = {}
    for scheduler, knobs in (
            ("fair_share", {}),
            ("capped", dict(cpu_cap=0.2, cpu_reservation=0.2))):
        for load, hogs in (("idle", 0), ("busy", 4)):
            vini, exp = build_planetlab(51, hogs=hogs, **knobs)
            # 60 Mb/s is beyond what a 20 % CPU slice can forward.
            _sent, received, _jitter = _iperf_udp(
                vini, _ends(vini, exp, "chicago", "washington"), 60e6, 3.0)
            out[f"{scheduler}.{load}_mbps"] = _delivered_mbps(received, 3.0)
        idle = out[f"{scheduler}.idle_mbps"]
        out[f"{scheduler}.swing_pct"] = (
            100.0 * (idle - out[f"{scheduler}.busy_mbps"]) / idle)
    out["capped/fair_share.swing_pct"] = (
        out["capped.swing_pct"] / out["fair_share.swing_pct"])
    out["capped-fair_share.idle_mbps"] = (
        out["capped.idle_mbps"] - out["fair_share.idle_mbps"])
    return out


SCENARIOS = {scenario.__name__: scenario for scenario in (
    table2, table3, table4, table5, table6, fig6, fig8, fig9, bgp_mux,
    syscall_cost, cpu_isolation, ospf_timers, nwc_scheduler)}


# ----------------------------------------------------------------------
# The record (results/paper.json) and its rendering into EXPERIMENTS.md
# ----------------------------------------------------------------------
def _rounded(value):
    """Six significant digits: what survives a reordered float sum."""
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return float(f"{value:.6g}") if isinstance(value, float) else value


def load():
    """The committed record: ``{experiment: {key: number | series}}``."""
    return json.loads(RESULTS.read_text()) if RESULTS.exists() else {}


def check(experiment, recorded):
    """Everything wrong with ``recorded`` as the outcome of
    ``experiment``: a claim it does not meet, a claim with no number, a
    number with no claim. Empty when the paper's shape holds."""
    claims = {c.key: c for c in CLAIMS if c.experiment == experiment}
    numbers = {k: v for k, v in recorded.items() if not isinstance(v, list)}
    problems = [f"{experiment}: {key} is claimed but was not recorded"
                for key in claims.keys() - numbers.keys()]
    problems += [f"{experiment}: {key} was recorded but has no claim"
                 for key in numbers.keys() - claims.keys()]
    problems += [
        f"{experiment}: {key} = {numbers[key]:g} is outside "
        f"[{claim.lo:g}, {claim.hi:g}]"
        for key, claim in claims.items()
        if key in numbers and not claim.lo <= numbers[key] <= claim.hi]
    return sorted(problems)


def _cell(value, unit):
    return "—" if value is None else f"{value:g} {unit}".rstrip()


def _band(lo, hi):
    if lo == hi:
        return f"= {lo:g}"
    if (lo, hi) == (-INF, INF):
        return "—"
    if hi == INF:
        return f"≥ {lo:g}"
    return f"≤ {hi:g}" if lo == -INF else f"{lo:g} … {hi:g}"


def render(experiment, recorded):
    """The experiment's paper-vs-measured table, one row per claim."""
    rows = ["| claim | paper | measured | band |", "|---|---|---|---|"]
    rows += [
        f"| `{c.key}` | {_cell(c.paper, c.unit)} "
        f"| {_cell(recorded.get(c.key), c.unit)} | {_band(c.lo, c.hi)} |"
        for c in CLAIMS if c.experiment == experiment]
    return "\n".join(rows) + "\n"


def block(text, experiment):
    """(start, end) of what lies between the experiment's markers."""
    match = re.search(
        rf"<!-- paper:{experiment} -->\n(.*?)<!-- /paper:{experiment} -->",
        text, re.S)
    if match is None:
        raise ValueError(f"EXPERIMENTS.md has no <!-- paper:{experiment} --> block")
    return match.span(1)


def record(experiment, measured):
    """Write one scenario's outcome: its entry of ``results/paper.json``
    (sorted keys, one series row per line) and its EXPERIMENTS.md table.
    Returns the entry as written, which is what the claims judge."""
    results = load()
    results[experiment] = {k: _rounded(v) for k, v in measured.items()}
    text = json.dumps(results, indent=1, sort_keys=True)
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda row: "[" + " ".join(row.group(1).split()) + "]", text)
    RESULTS.write_text(text + "\n")
    page = EXPERIMENTS_MD.read_text()
    start, end = block(page, experiment)
    EXPERIMENTS_MD.write_text(
        page[:start] + render(experiment, results[experiment]) + page[end:])
    return results[experiment]
