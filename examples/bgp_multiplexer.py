#!/usr/bin/env python3
"""The BGP multiplexer (Section 6.1): experiments meet the real Internet.

One external operational router refuses to maintain a session per
experiment, so VINI interposes a multiplexer: a single, stable eBGP
session faces the world, and each experiment gets a private session
with prefix-ownership filters and an update-rate limiter. An unstable
experiment flapping its prefix is contained; a well-behaved one gets
global reachability.

Run:  python examples/bgp_multiplexer.py
"""

from repro.routing.bgp import BGPDaemon, DirectTransport
from repro.routing.bgp_mux import BGPMultiplexer
from repro.sim import Simulator

sim = Simulator(seed=5)

# The VINI-side multiplexer owns 198.18.0.0/16 and one external session
# to AS 7018 (the upstream provider).
mux = BGPMultiplexer(sim, asn=64512, router_id="198.18.0.1")
upstream = BGPDaemon(sim, 7018, "12.0.0.1", name="upstream")
t_up, t_mux = DirectTransport.pair(sim, delay=0.020)
upstream.add_session(t_up, 64512, mrai=0.5).start()
mux.attach_external(t_mux, 7018)

# Two experiments, each with a /24 of the VINI block.
stable = BGPDaemon(sim, 65101, "198.18.1.1", name="stable-exp")
flappy = BGPDaemon(sim, 65102, "198.18.2.1", name="flappy-exp")
for exp, block in ((stable, "198.18.1.0/24"), (flappy, "198.18.2.0/24")):
    t_exp, t_mux_client = DirectTransport.pair(sim, delay=0.005)
    exp.add_session(t_exp, 64512, mrai=0.1).start()
    mux.add_client(exp.name, t_mux_client, exp.asn, allowed=block,
                   max_update_rate=0.5)

# The upstream announces the world; the stable experiment announces its
# block; the flappy one flaps its block and also tries to hijack space
# it does not own.
upstream.originate("8.8.8.0/24")
stable.originate("198.18.1.0/24")


def flap(count=0):
    if count >= 30:
        return
    if count % 2 == 0:
        flappy.originate("198.18.2.0/24")
        flappy.originate("198.18.1.128/25")  # hijack attempt!
    else:
        flappy.withdraw_origin("198.18.2.0/24")
    sim.at(0.5, flap, count + 1)


sim.at(5.0, flap)
sim.run(until=60.0)

print("upstream's view of VINI space:")
for pfx in ("198.18.1.0/24", "198.18.2.0/24", "198.18.1.128/25"):
    route = upstream.best(pfx)
    print(f"  {pfx}: {'as_path=' + str(route.as_path) if route else 'NOT PRESENT'}")
print()
print("experiments' view of the world:")
print("  stable-exp sees 8.8.8.0/24:", stable.best("8.8.8.0/24").as_path)
print()
stats = mux.stats()
print(f"mux filtered {stats['flappy-exp']['filtered']:.0f} hijack "
      f"announcements and rate-limited {stats['flappy-exp']['ratelimited']:.0f} "
      "updates from the flapping experiment")
print(f"(stable experiment: {stats['stable-exp']['filtered']:.0f} filtered, "
      f"{stats['stable-exp']['ratelimited']:.0f} rate-limited)")
