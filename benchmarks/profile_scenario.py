"""``make profile``: run a short Abilene IIAS scenario under the
sim-time profiler and print the per-component breakdown.

The scenario is Figure 8's setting in miniature: the 11-PoP Abilene
mirror converges under OSPF, then a ping and a window-limited TCP
transfer cross the overlay while the profiler attributes every
event-loop callback to its component (Click elements, routing daemons,
CPU scheduler, links, ...).

Usage::

    PYTHONPATH=src python benchmarks/profile_scenario.py
    PYTHONPATH=src python benchmarks/profile_scenario.py --until 30 --seed 3
"""

from __future__ import annotations

import argparse
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.obs import Profiler  # noqa: E402
from repro.tools import IperfTCPClient, IperfTCPServer, Ping  # noqa: E402
from repro.topologies import build_abilene_iias  # noqa: E402

WARMUP = 20.0  # OSPF adjacency + LSA flood + SPF settle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--until", type=float, default=15.0,
                        help="profiled seconds of sim time after warm-up")
    parser.add_argument("--seed", type=int, default=8, help="world seed")
    parser.add_argument("--no-warmup-profile", action="store_true",
                        help="exclude the OSPF warm-up from the profile")
    args = parser.parse_args(argv)

    vini, exp = build_abilene_iias(seed=args.seed)
    profiler = Profiler(vini.sim)
    if not args.no_warmup_profile:
        profiler.install()
    exp.run(until=WARMUP)

    washington = exp.network.nodes["washington"]
    seattle = exp.network.nodes["seattle"]
    ping = Ping(
        washington.phys_node, seattle.tap_addr, sliver=washington.sliver,
        interval=0.25, count=int(args.until / 0.25),
    ).start()
    server = IperfTCPServer(seattle.phys_node, sliver=seattle.sliver)
    IperfTCPClient(
        washington.phys_node, seattle.tap_addr, sliver=washington.sliver,
        streams=1, duration=args.until, server=server,
    ).start()

    profiler.install()
    vini.run(until=WARMUP + args.until + 1.0)
    profiler.remove()

    stats = ping.stats()
    print(f"profiled {profiler.event_count} events over "
          f"{args.until:.1f}s sim time (seed {args.seed}); "
          f"ping: {stats}")
    print(f"iperf: {server.bytes_received / 1e6:.2f} MB delivered\n")
    print(profiler.format_report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
