"""The instrumented hot paths publish registry values that equal the
legacy object-attribute readouts — the contract ``benchmarks/paper.py``
leans on when it reads each headline once, from the registry."""

from repro.obs import MetricsRegistry
from repro.tools import (
    IperfTCPClient,
    IperfTCPServer,
    IperfUDPClient,
    IperfUDPServer,
    Ping,
)
from repro.topologies import build_abilene_iias, build_deter


def test_deter_world_metrics_match_legacy_attributes():
    vini = build_deter(seed=4)
    metrics = vini.sim.metrics
    server = IperfTCPServer(vini.nodes["sink"])
    tcp_client = IperfTCPClient(
        vini.nodes["src"], vini.nodes["sink"].address,
        streams=2, duration=0.6, server=server,
    ).start()
    udp_server = IperfUDPServer(vini.nodes["sink"])
    udp_client = IperfUDPClient(
        vini.nodes["src"], vini.nodes["sink"].address, rate_bps=20e6,
        duration=0.4, server=udp_server,
    ).start()
    ping = Ping(
        vini.nodes["src"], vini.nodes["sink"].address,
        interval=0.05, count=5,
    ).start()
    # A 0.25 s outage of the second hop costs each TCP stream an RTO
    # and the UDP stream its tail, so the loss counters below are
    # non-zero and sent != received.
    link = vini.link_between("fwdr", "sink")
    vini.sim.schedule(0.3, link.fail)
    vini.sim.schedule(0.55, link.recover)
    vini.run(until=1.0)

    # Engine gauges read the live scheduler state.
    assert metrics.value("sim.now") == vini.sim.now
    assert metrics.value("sim.pending") == vini.sim.pending
    assert metrics.value("sim.events_scheduled") > 0

    # CPU accounting: the pull counter IS the scheduler's busy_time.
    for name, node in vini.nodes.items():
        assert metrics.value("cpu.busy_seconds", cpu=f"{name}.cpu") == node.cpu.busy_time
    latencies = list(metrics.find("cpu.sched_latency"))
    assert latencies and any(h.count > 0 for h in latencies)

    # Links: per-direction counters conserve packets.
    offered = metrics.sum_values("link.offered_pkts")
    delivered = metrics.sum_values("link.delivered_pkts")
    dropped = metrics.sum_values("link.dropped_pkts")
    assert offered > 0
    assert delivered + dropped <= offered  # <= : packets may be in flight
    assert metrics.sum_values("link.delivered_bytes") > 0

    # Transport + tools equal their legacy readouts.
    from repro.net.tcp import TCPStack

    sink_stack = TCPStack.of(vini.nodes["sink"])
    assert (
        metrics.value("tcp.bytes_received", node="sink")
        == sink_stack.total_bytes_received
    )
    assert (
        metrics.value("iperf.tcp.bytes_received", node="sink", port=5001)
        == server.bytes_received
    )
    src_stack = TCPStack.of(vini.nodes["src"])
    assert metrics.value("tcp.timeouts", node="src") == src_stack.total_timeouts >= 2
    assert (
        metrics.value("tcp.retransmits", node="src")
        == src_stack.total_retransmits >= 2
    )
    udp = udp_client.result()
    assert udp.sent > udp.received > 0 and udp.jitter > 0
    assert metrics.value("iperf.udp.sent", node="src", port=5002) == udp.sent
    assert (
        metrics.value("iperf.udp.received", node="sink", port=5002)
        == udp.received
    )
    assert metrics.value("iperf.udp.jitter", node="sink", port=5002) == udp.jitter
    labels = dict(src="src", dst=str(ping.dst), ident=ping.ident)
    assert metrics.value("ping.transmitted", **labels) == ping.transmitted
    assert metrics.value("ping.received", **labels) == ping.received
    hist = metrics.get("ping.rtt", **labels)
    assert hist.count == len(ping.samples)
    assert hist.sum == sum(rtt for _t, _s, rtt in ping.samples)
    # ping's summary line rebuilt from the histogram is the one from the
    # sample list (mdev by the sum-of-squares identity, so to rounding).
    stats = ping.stats()
    assert (hist.min, hist.max) == (stats.min_rtt, stats.max_rtt)
    assert abs(hist.mean - stats.avg_rtt) <= 1e-12
    assert abs(hist.stddev - stats.mdev) <= 1e-9 + 1e-6 * stats.mdev


def test_abilene_overlay_publishes_click_and_ospf_metrics():
    vini, exp = build_abilene_iias(seed=6)
    exp.run(until=35.0)
    metrics = vini.sim.metrics

    # Every virtual link end's Click loss element registered pull counters.
    loss_series = list(metrics.find("click.loss.delivered_pkts"))
    assert loss_series
    assert all("node" in m.labels and "element" in m.labels for m in loss_series)
    assert metrics.sum_values("click.loss.delivered_pkts") > 0
    # Tunnels carried the overlay's traffic.
    assert metrics.sum_values("click.tunnel.tx_pkts") > 0
    assert metrics.sum_values("click.tunnel.rx_pkts") > 0

    # OSPF converged: hellos flowed, SPF ran, LSDBs filled, adjacencies
    # reached FULL — and the pull values equal the daemon attributes.
    assert metrics.sum_values("ospf.messages_sent", type="hello") > 0
    assert metrics.sum_values("ospf.messages_received", type="hello") > 0
    from repro.routing.ospf import _rid

    for vnode in exp.network.nodes.values():
        # Click's CPU time: the per-process pull counter IS cpu_used.
        click = vnode.click_process
        assert metrics.value(
            "cpu.process_seconds", cpu=f"{click.node.name}.cpu",
            process=click.metric_label,
        ) == click.cpu_used > 0
        daemon = vnode.xorp.ospf
        if daemon is None:
            continue
        rid = _rid(daemon.router_id)
        row = [m for m in metrics.find("ospf.spf_runs", router=rid)]
        assert len(row) == 1 and row[0].value == daemon.spf_runs
        assert metrics.value("ospf.lsdb_size", router=rid) == len(daemon.lsdb)
        assert metrics.value("ospf.neighbors_full", router=rid) >= 1
        assert metrics.value("ospf.last_spf_time", router=rid) > 0


def test_policy_counters_track_import_export_decisions():
    from repro.sim.engine import Simulator
    from repro.topologies.internet import build_policy_graph

    sim = Simulator(seed=2)
    build_policy_graph(sim, 3, [(1, 2), (3, 2)], [])
    sim.run(until=30.0)
    metrics = sim.metrics
    assert metrics.sum_values("policy.imports_accepted") > 0
    assert metrics.sum_values("policy.exports_allowed") > 0
    # as2 must have filtered provider routes from its other provider.
    assert metrics.sum_values("policy.exports_filtered") > 0
    for name in ("policy.imports_accepted", "policy.exports_allowed",
                 "policy.exports_filtered"):
        assert all("daemon" in m.labels for m in metrics.find(name))


def test_disabled_registry_covers_policy_counters():
    from repro.sim.engine import Simulator
    from repro.topologies.internet import build_policy_graph

    old = MetricsRegistry.default_enabled
    MetricsRegistry.default_enabled = False
    try:
        sim = Simulator(seed=2)
        daemons, _policies = build_policy_graph(sim, 3, [(1, 2), (3, 2)], [])
        sim.run(until=30.0)
        assert sim.metrics.collect() == []
        # Policy still enforced — only the bookkeeping is gone.
        from repro.net.addr import prefix
        assert daemons[1].loc_rib.get(prefix("99.3.0.0/16").key) is None
        assert daemons[1].loc_rib.get(prefix("99.2.0.0/16").key) is not None
    finally:
        MetricsRegistry.default_enabled = old


def test_disabled_world_registers_no_instruments():
    old = MetricsRegistry.default_enabled
    MetricsRegistry.default_enabled = False
    try:
        vini = build_deter(seed=4)
        server = IperfTCPServer(vini.nodes["sink"])
        IperfTCPClient(
            vini.nodes["src"], vini.nodes["sink"].address,
            streams=1, duration=0.2, server=server,
        ).start()
        vini.run(until=0.5)
        assert vini.sim.metrics.collect() == []
        # The world still worked — only the bookkeeping is gone.
        assert server.bytes_received > 0
    finally:
        MetricsRegistry.default_enabled = old
