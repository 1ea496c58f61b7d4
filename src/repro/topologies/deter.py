"""The DETER microbenchmark topology (Figures 3 and 4).

Three machines — Src, Fwdr, Sink — joined by Gigabit Ethernet with no
emulated delay or loss. Fwdr forwards in its kernel for the "Network"
baseline (Fig. 3); the IIAS variant (Fig. 4) runs a Click overlay over
the same machines, with tap addresses in 192.168.1.0/24 tunneling over
the 10.1.x.x physical subnets, exactly as the paper's figures show.

The machines are "pc2800 2.8 GHz Xeons" — CPU speed 1.0 is calibrated
to that class of hardware, and Click's syscall-bound per-packet cost
makes user-space forwarding CPU-bound at roughly one fifth of the
kernel's 940 Mb/s.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.experiment import Experiment
from repro.core.infrastructure import VINI

GIGE = 1_000_000_000


def build_deter(seed: int = 0) -> VINI:
    """Src -- Fwdr -- Sink over GigE (Figure 3)."""
    vini = VINI(seed=seed, backbone_block="10.1.0.0/16")
    vini.add_node("src")
    vini.add_node("fwdr")
    vini.add_node("sink")
    # The paper's addressing: 10.1.1.0/30 and 10.1.2.0/30. Delays are
    # LAN-scale (a few microseconds of wire + switch).
    vini.connect("src", "fwdr", bandwidth=GIGE, delay=20e-6, queue_bytes=512 * 1024)
    vini.connect("fwdr", "sink", bandwidth=GIGE, delay=20e-6, queue_bytes=512 * 1024)
    vini.install_underlay_routes()
    return vini


def build_deter_iias(seed: int = 0) -> Tuple[VINI, Experiment]:
    """IIAS overlaid on the DETER machines (Figure 4).

    Tap addresses live in 192.168.1.0/24 (the paper's Fig. 4 shows
    iperf at 192.168.1.1/192.168.1.2); tunnels ride the physical
    10.1.x subnets. On dedicated DETER hardware there is no contending
    load, so the slice runs real-time — the machines are all ours.
    """
    vini = build_deter(seed=seed)
    exp = Experiment(
        vini, "iias", realtime=True, tap_route_prefix="192.168.0.0/16"
    )
    exp.add_node("src", "src", tap_addr="192.168.1.1")
    exp.add_node("fwdr", "fwdr", tap_addr="192.168.1.3")
    exp.add_node("sink", "sink", tap_addr="192.168.1.2")
    exp.connect("src", "fwdr")
    exp.connect("fwdr", "sink")
    exp.configure_ospf(hello_interval=5.0, dead_interval=10.0)
    return vini, exp
