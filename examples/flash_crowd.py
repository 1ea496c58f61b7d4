#!/usr/bin/env python3
"""Controlled flash crowds (the other event type of Section 1).

A service runs on one virtual node of an overlay star. At a scheduled
time, a crowd of senders across the other nodes converges on it for a
few seconds. A background ping measures how the overlay's service
degrades during the crowd and recovers afterwards — a controlled
experiment on an event that, in the wild, you would have to wait for.

With ``--figure`` this becomes the headline scalability figure
(ROADMAP item 2): the same crowd scenario swept over crowd sizes,
packet-by-packet vs. the hybrid fluid plane (`repro.traffic`). Both
keep the foreground ping packet-accurate; the hybrid run carries the
crowd as fluid flows, so "users served" scales to 100k+ while
wall-clock stays flat. Results land in
``benchmarks/results/flash_crowd_scaling.json`` (+ ``.csv``).

Run:  python examples/flash_crowd.py            # the demo
      python examples/flash_crowd.py --figure   # the scaling figure
"""

import argparse
import csv
import json
import os
import time

from repro.tools import FlashCrowd, Ping
from repro.topologies import build_star

WARMUP = 20.0  # OSPF convergence before anything interesting
CROWD_AT = 10.0  # seconds after the probe starts
CROWD_LEN = 5.0
PER_USER_BPS = 50e3  # one crowd user's demand in the figure sweep


def demo() -> None:
    """The original controlled flash-crowd experiment."""
    # A star overlay: hub + 4 leaves, physical links at 20 Mb/s so the
    # crowd actually hurts at the links as well as the hub CPU. The
    # virtual links stay unshaped and inherit that physical capacity.
    vini, exp = build_star(4, seed=13, name="crowd-demo")
    exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
    exp.run(until=WARMUP)

    hub = exp.network.nodes["hub"]
    leaves = [exp.network.nodes[f"leaf{i}"] for i in range(4)]

    # The "service": a UDP sink on the hub's overlay address.
    service_proc = hub.sliver.create_process("service")
    service = hub.phys_node.udp_socket(
        service_proc, port=9000, local_addr=hub.tap_addr, rcvbuf=256 * 1024
    )
    served = []
    service.on_receive = lambda pkt, src, sport: served.append(vini.sim.now)

    # Background probe: leaf0 pings the hub throughout.
    probe = Ping(leaves[0].phys_node, hub.tap_addr, sliver=leaves[0].sliver,
                 interval=0.25, count=200).start()

    # The crowd: 12 senders spread over leaves 1-3, 25 Mb/s each
    # (300 Mb/s aggregate -- far beyond the 20 Mb/s leaf links and the
    # hub Click's user-space forwarding capacity).
    crowd = FlashCrowd(
        [leaf.phys_node for leaf in leaves[1:]],
        hub.tap_addr, 9000,
        n_sources=12, rate_bps=25e6,
        slivers=[leaf.sliver for leaf in leaves[1:]],
    )
    crowd.schedule(start=vini.sim.now + CROWD_AT, duration=CROWD_LEN)
    start = vini.sim.now
    vini.run(until=start + 30.0)

    print(f"crowd sent {crowd.sent} datagrams; service received {len(served)}")
    print(f"({crowd.sent - len(served)} lost under overload)")
    print()
    print("ping RTT leaf0 -> hub (ms), crowd active t=10..15:")
    for t, rtt in probe.rtt_series():
        offset = t - start
        bar = "#" * min(60, int(rtt * 1e3 / 2))
        if 0 <= offset <= 30:
            print(f"  t={offset:5.1f}s  {rtt * 1e3:8.2f}  |{bar}")
    phases = _phases(probe, start)
    print()
    for name, rtts in phases.items():
        if rtts:
            print(f"  {name:7s} mean RTT: "
                  f"{sum(rtts) / len(rtts) * 1e3:7.2f} ms "
                  f"({len(rtts)} probes)")
    lost = probe.transmitted - probe.received
    print(f"  probes lost: {lost}")


def _phases(probe, start):
    return {
        "before": [r for t, r in probe.rtt_series() if t - start < CROWD_AT],
        "during": [r for t, r in probe.rtt_series()
                   if CROWD_AT <= t - start < CROWD_AT + CROWD_LEN],
        "after": [r for t, r in probe.rtt_series()
                  if t - start >= CROWD_AT + CROWD_LEN + 0.5],
    }


# ----------------------------------------------------------------------
# The scaling figure: users-served vs. wall-clock, packet vs. hybrid
# ----------------------------------------------------------------------
def scaling_run(mode: str, users: int, seed: int = 13) -> dict:
    """One figure cell: a crowd of ``users`` converging on leaf0.

    The crowd rides leaves 1-3 -> leaf0 (through the hub), so it
    congests the hub->leaf0 direction the foreground ping's replies
    cross — both models degrade the same probe. ``mode`` is
    ``"packet"`` (one CBR sender per user) or ``"hybrid"`` (the same
    aggregate as fluid flows on a FluidTrafficPlane).
    """
    vini, exp = build_star(4, seed=seed, name=f"crowd-{mode}-{users}",
                           realtime=False)
    exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
    exp.run(until=WARMUP)
    leaves = [exp.network.nodes[f"leaf{i}"] for i in range(4)]
    hub = exp.network.nodes["hub"]
    leaf0 = leaves[0]

    sink_proc = leaf0.sliver.create_process("service")
    sink = leaf0.phys_node.udp_socket(
        sink_proc, port=9000, local_addr=leaf0.tap_addr, rcvbuf=256 * 1024
    )
    sink.on_receive = lambda pkt, src, sport: None

    probe = Ping(leaf0.phys_node, hub.tap_addr, sliver=leaf0.sliver,
                 interval=0.25, count=120).start()
    start = vini.sim.now
    plane = None
    if mode == "packet":
        crowd = FlashCrowd(
            [leaf.phys_node for leaf in leaves[1:]],
            leaf0.tap_addr, 9000,
            n_sources=users, rate_bps=PER_USER_BPS,
            slivers=[leaf.sliver for leaf in leaves[1:]],
        )
        crowd.schedule(start=start + CROWD_AT, duration=CROWD_LEN)
    else:
        from repro.traffic import FluidTrafficPlane

        plane = FluidTrafficPlane(exp)
        handles = []
        share = [users // 3 + (1 if i < users % 3 else 0) for i in range(3)]

        def crowd_on():
            for i, count in enumerate(share):
                if count > 0:
                    handles.append(plane.add_flow(
                        f"leaf{i + 1}", "leaf0",
                        demand_bps=PER_USER_BPS, count=count,
                        window_bytes=65535,
                    ))

        def crowd_off():
            for handle in handles:
                handle.stop()

        vini.sim.schedule(start + CROWD_AT, crowd_on)
        vini.sim.schedule(start + CROWD_AT + CROWD_LEN, crowd_off)

    wall = time.perf_counter()
    vini.run(until=start + 25.0)
    wall = time.perf_counter() - wall

    phases = _phases(probe, start)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    row = {
        "mode": mode,
        "users": users,
        "wall_clock_s": round(wall, 3),
        "rtt_before_ms": round(mean(phases["before"]) * 1e3, 3),
        "rtt_during_ms": round(mean(phases["during"]) * 1e3, 3),
        "rtt_after_ms": round(mean(phases["after"]) * 1e3, 3),
        "probes_lost": probe.transmitted - probe.received,
    }
    if plane is not None:
        row["flows_peak"] = plane.stats["flows_peak"]
        row["solver_runs"] = plane.stats["solver_runs"]
    return row


def figure(quick: bool = False, out_dir: str = "benchmarks/results") -> list:
    packet_sizes = [60] if quick else [60, 240, 960]
    hybrid_sizes = [60, 10_000] if quick else [60, 240, 960, 10_000, 100_000]
    rows = []
    for users in packet_sizes:
        rows.append(scaling_run("packet", users))
        print("packet  %6d users: %7.2fs wall, RTT %6.2f -> %6.2f ms" % (
            users, rows[-1]["wall_clock_s"], rows[-1]["rtt_before_ms"],
            rows[-1]["rtt_during_ms"]))
    for users in hybrid_sizes:
        rows.append(scaling_run("hybrid", users))
        print("hybrid  %6d users: %7.2fs wall, RTT %6.2f -> %6.2f ms" % (
            users, rows[-1]["wall_clock_s"], rows[-1]["rtt_before_ms"],
            rows[-1]["rtt_during_ms"]))

    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, "flash_crowd_scaling")
    with open(base + ".json", "w") as handle:
        json.dump({"per_user_bps": PER_USER_BPS, "rows": rows}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    with open(base + ".csv", "w", newline="") as handle:
        fields = ["mode", "users", "wall_clock_s", "rtt_before_ms",
                  "rtt_during_ms", "rtt_after_ms", "probes_lost"]
        writer = csv.DictWriter(handle, fieldnames=fields,
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    print(f"\nwrote {base}.json and {base}.csv")

    print("\nusers served vs. wall-clock (fixed foreground fidelity):")
    for row in rows:
        bar = "#" * min(60, max(1, int(row["wall_clock_s"] * 4)))
        print("  %-6s %7d users %8.2fs |%s" % (
            row["mode"], row["users"], row["wall_clock_s"], bar))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--figure", action="store_true",
                        help="run the packet-vs-hybrid scaling sweep")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep for CI smoke")
    args = parser.parse_args()
    if args.figure:
        figure(quick=args.quick)
    else:
        demo()


if __name__ == "__main__":
    main()
