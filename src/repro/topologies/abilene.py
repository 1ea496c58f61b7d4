"""The Abilene backbone (Figure 7) and its IIAS mirror.

Eleven PoPs, 2006-era topology. Link latencies are propagation delays
derived from fiber-route distances, calibrated so that the experiment
of Section 5.2 reproduces the paper's numbers:

* default D.C. -> Seattle path (via New York, Chicago, Indianapolis,
  Kansas City, Denver): ping RTT ~76 ms;
* after the Denver--Kansas City failure, the new path (via Atlanta,
  Houston, Los Angeles, Sunnyvale): RTT ~93 ms.

OSPF weights mirror the real configuration's latency-derived costs, so
shortest paths match the paper's narrative. The PlanetLab nodes
co-located at the PoPs are 2006-era servers whose access links are
100 Mb/s Ethernet (the microbenchmarks of Section 5.1.2 measure
~90 Mb/s end-to-end TCP).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.experiment import Experiment
from repro.core.infrastructure import VINI

# PoP name -> (router id octet, human label)
ABILENE_POPS = [
    "seattle",
    "sunnyvale",
    "losangeles",
    "denver",
    "kansascity",
    "houston",
    "chicago",
    "indianapolis",
    "atlanta",
    "newyork",
    "washington",
]

# (a, b, one-way propagation delay in seconds). Delays are fiber-route
# estimates scaled by 1.21 to match the paper's observed RTTs.
_SCALE = 1.21
ABILENE_LINKS: Dict[Tuple[str, str], float] = {
    ("seattle", "sunnyvale"): 6.5e-3 * _SCALE,
    ("seattle", "denver"): 10.0e-3 * _SCALE,
    ("sunnyvale", "losangeles"): 3.0e-3 * _SCALE,
    ("sunnyvale", "denver"): 9.5e-3 * _SCALE,
    ("losangeles", "houston"): 14.5e-3 * _SCALE,
    ("denver", "kansascity"): 5.0e-3 * _SCALE,
    ("kansascity", "houston"): 7.0e-3 * _SCALE,
    ("kansascity", "indianapolis"): 4.5e-3 * _SCALE,
    ("houston", "atlanta"): 7.5e-3 * _SCALE,
    ("atlanta", "indianapolis"): 8.0e-3 * _SCALE,
    ("atlanta", "washington"): 7.0e-3 * _SCALE,
    ("indianapolis", "chicago"): 1.8e-3 * _SCALE,
    ("chicago", "newyork"): 8.0e-3 * _SCALE,
    ("newyork", "washington"): 2.0e-3 * _SCALE,
}

# OSPF costs mirror Abilene's latency-derived weights (one unit per
# ~0.1 ms of fiber delay).
def ospf_weight(delay: float) -> int:
    return max(1, round(delay * 1e4))


BACKBONE_BANDWIDTH = 10_000_000_000  # OC-192
ACCESS_BANDWIDTH = 100_000_000  # PlanetLab node 100 Mb/s Ethernet


def build_abilene(
    vini: Optional[VINI] = None,
    seed: int = 0,
    node_bandwidth: float = ACCESS_BANDWIDTH,
) -> VINI:
    """Build the physical Abilene backbone with a PlanetLab-style node
    at each PoP.

    Each PoP is modeled as one :class:`PhysicalNode` (the co-located
    PlanetLab server) whose links to neighboring PoPs carry the
    backbone propagation delay but are capped at the server's access
    bandwidth — the resource that actually limits the Section 5.1.2
    experiments.
    """
    vini = vini if vini is not None else VINI(seed=seed)
    for pop in ABILENE_POPS:
        vini.add_node(pop)
    for (a, b), delay in ABILENE_LINKS.items():
        vini.connect(a, b, bandwidth=node_bandwidth, delay=delay,
                     queue_bytes=512 * 1024)
    vini.install_underlay_routes()
    return vini


def build_abilene_iias(seed: int = 0) -> Tuple[VINI, Experiment]:
    """The Section 5.2 setup: IIAS mirroring Abilene 1:1.

    "We configure IIAS with the same topology and OSPF link weights as
    the underlying Abilene network ... each virtual link maps directly
    to a single physical link between two Abilene routers." As in the
    paper the mirror is extracted from the eleven routers'
    configurations: `repro.rcc` parses them, checks them and generates
    the experiment, so the OSPF costs and the 5 s / 10 s hello/dead
    intervals (footnote 3) are the ones in the configuration text.
    """
    # repro.rcc.samples writes the configurations from this module's tables.
    from repro.rcc import abilene_router_configs, experiment_from_model, parse_configs

    vini = build_abilene(seed=seed)
    model = parse_configs(abilene_router_configs())
    return vini, experiment_from_model(model, vini, name="iias")
