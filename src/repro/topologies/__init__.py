"""Ready-made topologies: Abilene, DETER, PlanetLab, and generators.

The paper's three experimental settings are the DETER/Emulab 3-node
testbed (Figs. 3–4), the three loaded PlanetLab nodes at Abilene PoPs
(Fig. 5) and the 11-PoP Abilene backbone mirror (Fig. 7). All are
reproduced here with calibrated link latencies, along with generic
generators (line/ring/star/mesh and Waxman random graphs) for
experiments beyond the paper.
"""

from repro.topologies.abilene import (
    ABILENE_LINKS,
    ABILENE_POPS,
    build_abilene,
    build_abilene_iias,
)
from repro.topologies.deter import build_deter, build_deter_iias
from repro.topologies.generators import (
    build_dumbbell,
    build_full_mesh,
    build_line,
    build_ring,
    build_star,
    build_waxman,
)
from repro.topologies.internet import (
    InternetSpec,
    InternetWorld,
    build_internet,
    build_policy_graph,
    generate_internet_spec,
    hijack_plan,
    stuck_route_plan,
)
from repro.topologies.planetlab import PLANETLAB_CONFIGS, build_planetlab

__all__ = [
    "ABILENE_LINKS",
    "ABILENE_POPS",
    "InternetSpec",
    "InternetWorld",
    "PLANETLAB_CONFIGS",
    "build_abilene",
    "build_abilene_iias",
    "build_deter",
    "build_deter_iias",
    "build_dumbbell",
    "build_full_mesh",
    "build_internet",
    "build_line",
    "build_planetlab",
    "build_policy_graph",
    "build_ring",
    "build_star",
    "build_waxman",
    "generate_internet_spec",
    "hijack_plan",
    "stuck_route_plan",
]
