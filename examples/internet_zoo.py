"""Internet in a slice: a multi-AS zoo with Gao-Rexford policy.

Builds a seeded 8-AS internet (tier-1 core, transit customers, stubs),
converges OSPF + iBGP/eBGP, prints the AS-level routing table of one
stub, then runs a prefix hijack as a FaultPlan and shows the diversion
opening and healing.

Run:  PYTHONPATH=src python examples/internet_zoo.py
"""

from repro.net.addr import IPv4Address
from repro.obs.routing import ConvergenceTracker
from repro.topologies.internet import build_internet, hijack_plan

N_AS = 8
SEED = 3
WARMUP = 60.0


def main() -> None:
    world = build_internet(n_as=N_AS, seed=SEED)
    spec = world.spec
    print(f"built {len(spec.ases)} ASes / {spec.n_routers} routers; "
          f"{len(spec.inter_edges)} inter-AS edges")
    for edge in spec.inter_edges:
        print(f"  as{edge.a_asn} --{edge.rel}--> as{edge.b_asn} "
              f"({edge.a_router} <-> {edge.b_router})")

    world.run(until=WARMUP)
    print(f"\nconverged {world.converged_routers()}/{spec.n_routers} "
          f"routers at t={world.sim.now:.0f}s")

    stub = spec.ases[-1]
    print(f"\nAS-level routes at {stub.anchor} (as{stub.asn}):")
    for other in spec.ases:
        if other.asn == stub.asn:
            continue
        path = world.best_as_path(stub.anchor, other.asn)
        print(f"  {other.prefix}  via {path}")

    # A controlled hijack: the last stub originates the first stub's
    # prefix for 15 s, then withdraws.
    victims = [a for a in spec.ases if a.tier == "stub"]
    victim, attacker = victims[0], victims[-1]
    addr = str(IPv4Address(int(victim.prefix.network) + 1))
    tracker = ConvergenceTracker(world.experiment).install()
    tracker.watch_path(attacker.routers[-1], victim.anchor, addr=addr)
    plan = hijack_plan(world, attacker.asn, victim.asn, at=WARMUP + 1.0)
    world.experiment.apply_faults(plan)
    world.run(until=WARMUP + 40.0)

    print(f"\nhijack: as{attacker.asn} originated {victim.prefix} "
          f"at t={WARMUP + 1.0:.0f}s, withdrew at t={WARMUP + 16.0:.0f}s")
    for window in tracker.path_windows(
        attacker.routers[-1], victim.anchor, addr=addr
    ):
        print(f"  {window['status']:<10} "
              f"{window['start']:7.2f}s -> {window['end']:7.2f}s")
    for episode in tracker.episodes:
        print(f"  episode {episode.trigger!r}: {episode.changes} route "
              f"changes, converged in {episode.convergence_s:.2f}s")
    print(f"\nhealed: {world.converged_routers()}/{spec.n_routers} "
          f"routers converged")


if __name__ == "__main__":
    main()
