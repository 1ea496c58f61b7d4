"""The instrumented hot paths publish registry values that equal the
legacy object-attribute readouts — the contract ``benchmarks/paper.py``
leans on when it reads each headline once, from the registry."""

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

    # The engine counter reads the live sequence number.
    assert metrics.value("sim.events_scheduled") == vini.sim._seq > 0

    # CPU accounting: the pull counter IS the scheduler's busy_time.
    for name, node in vini.nodes.items():
        assert metrics.value("cpu.busy_seconds", cpu=f"{name}.cpu") == node.cpu.busy_time

    # Links: the per-direction counters are the channels' own, and the
    # channels conserve packets.
    stats = [link.stats() for link in vini.links.values()]
    delivered = metrics.sum_values("link.delivered_pkts")
    dropped = metrics.sum_values("link.dropped_pkts")
    assert delivered == sum(s["delivered"] for s in stats) > 0
    assert dropped == sum(s["drops"] for s in stats) > 0
    assert delivered + dropped <= sum(s["offered"] for s in stats)  # in flight

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


def test_tunnel_counters_sum_to_the_packets_sent_in_the_zoo():
    """A physical node of the internet zoo hosts several virtual routers
    whose tunnel elements share names, so each tunnel's series is keyed
    by its UDP port too: none replaces another, and the sum is every
    packet the tunnels sent."""
    from repro.click import UDPTunnel
    from repro.topologies import build_internet

    world = build_internet(n_as=8, seed=1)
    world.run(until=30.0)
    tunnels = [element for vnode in world.network.nodes.values()
               for element in vnode.click.elements.values()
               if isinstance(element, UDPTunnel)]
    metrics = world.sim.metrics
    assert len(list(metrics.find("click.tunnel.tx_pkts"))) == len(tunnels)
    assert metrics.sum_values("click.tunnel.tx_pkts") == sum(
        t.tx_packets for t in tunnels) > 0


def test_abilene_overlay_publishes_click_and_ospf_metrics():
    vini, exp = build_abilene_iias(seed=6)
    exp.run(until=35.0)
    metrics = vini.sim.metrics

    # Tunnels carried the overlay's traffic: each tunnel's pull counter
    # is its element's own.
    tunnels = list(metrics.find("click.tunnel.tx_pkts"))
    assert tunnels and all({"node", "element", "port"} <= set(m.labels)
                           for m in tunnels)
    from repro.click import UDPTunnel

    for vnode in exp.network.nodes.values():
        for element in vnode.click.elements.values():
            if isinstance(element, UDPTunnel):
                assert metrics.value(
                    "click.tunnel.tx_pkts", node=vnode.phys_node.name,
                    element=element.name, port=element.local_port,
                ) == element.tx_packets
    assert metrics.sum_values("click.tunnel.tx_pkts") > 0

    # OSPF converged: SPF ran and LSAs were installed, and the pull
    # values equal the daemon attributes.
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
        assert len(row) == 1 and row[0].value == daemon.spf_runs > 0
        assert metrics.value("ospf.lsa_installed", router=rid) > 0
