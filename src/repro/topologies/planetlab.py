"""The PlanetLab microbenchmark world (Section 5.1.2, Figure 5).

Three PlanetLab nodes co-located with Abilene PoPs — Chicago, New York,
Washington D.C. — on 100 Mb/s Ethernet, separated by the backbone's
propagation delays (RTT 20.2 ms and 4.5 ms). Unlike DETER the machines
are shared: contending slices keep every CPU busy, so what the paper
varies here is how IIAS is scheduled against them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.experiment import Experiment
from repro.core.infrastructure import VINI
from repro.phys.load import CPUHog
from repro.topologies.abilene import ABILENE_LINKS, ACCESS_BANDWIDTH

POPS = ("chicago", "newyork", "washington")
#: A contending slice's chunk (CPUHog keywords): 0.5 ms, or 0.5-45 ms at 0.6 %.
SLICE_HOG = dict(quantum=0.0005, heavy_tail_prob=0.006, heavy_tail_max=0.045)

#: The three configurations Tables 4-6 and Fig. 6 compare, as
#: :func:`build_planetlab` keywords: kernel forwarding with no overlay,
#: IIAS in a default fair-share slice, and IIAS with PL-VINI's 25 % CPU
#: reservation plus real-time priority.
PLANETLAB_CONFIGS = {
    "network": dict(overlay=False),
    "planetlab": dict(),
    "plvini": dict(cpu_reservation=0.25, realtime=True),
}


def build_planetlab(
    seed: int = 0,
    *,
    overlay: bool = True,
    cpu_reservation: float = 0.0,
    realtime: bool = False,
    cpu_cap: Optional[float] = None,
    hogs: int = 7,
    warmup: float = 30.0,
) -> Tuple[VINI, Optional[Experiment]]:
    """Chicago -- New York -- Washington, warmed up for ``warmup`` s.

    With ``overlay`` an IIAS experiment (OSPF hello 5 s / dead 10 s) runs
    in a slice with the given isolation knobs; without it the returned
    experiment is ``None`` and the kernels forward. Each node also hosts
    ``hogs`` contending slices: seven mostly-busy ones leave a
    default-share slice roughly 1/8 of the CPU, and their occasional
    long non-preemptible chunks produce the tens-of-milliseconds latency
    outliers of Table 5.
    """
    vini = VINI(seed=seed)
    for name in POPS:
        vini.add_node(name)
    for a, b in zip(POPS, POPS[1:]):
        vini.connect(a, b, bandwidth=ACCESS_BANDWIDTH, delay=ABILENE_LINKS[(a, b)],
                     queue_bytes=256 * 1024)
    vini.install_underlay_routes()
    exp = None
    if overlay:
        exp = Experiment(vini, "iias", cpu_reservation=cpu_reservation,
                         realtime=realtime, cpu_cap=cpu_cap)
        for name in POPS:
            exp.add_node(name, name)
        for a, b in zip(POPS, POPS[1:]):
            exp.connect(a, b)
        exp.configure_ospf(hello_interval=5.0, dead_interval=10.0)
        exp.start()
    for node in vini.nodes.values():
        for index in range(hogs):
            CPUHog(node, name=f"slice{index}", **SLICE_HOG).start()
    vini.run(until=warmup)
    return vini, exp
