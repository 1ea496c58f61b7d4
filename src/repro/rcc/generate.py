"""Generate a VINI experiment from parsed router configurations.

This is the Section 6.2 pipeline: "PL-VINI's current machinery for
mirroring the Abilene topology automatically generates the necessary
XORP and Click configurations (and determines the appropriate
co-located nodes at Abilene PoPs) for a VINI experiment from the
actual Abilene routing configuration."

`repro.topologies.build_abilene_iias` is the caller: every Fig 8 /
Fig 9 run, the `abilene-failover` and `fluid-churn` ledger workloads
and the Fig-8 observatory get their mirror from here.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.experiment import Experiment
from repro.core.infrastructure import VINI
from repro.rcc.checks import check_model
from repro.rcc.model import NetworkModel

# Section 5.2 runs the mirror's slice with a 25 % CPU reservation and
# real-time priority on every node.
CPU_RESERVATION = 0.25
REALTIME = True


def experiment_from_model(
    model: NetworkModel, vini: VINI
) -> Experiment:
    """Build an experiment mirroring the parsed network.

    Each router lands on the physical node of the same name (the
    co-located PlanetLab node at its PoP), in the order the
    configurations were given; links follow in ``model.links`` order.
    A configuration with error-level faults is refused. Hello/dead
    intervals are the ones the configurations agree on.
    """
    errors = [f for f in check_model(model) if f.severity == "error"]
    if errors:
        detail = "; ".join(str(fault) for fault in errors)
        raise ValueError(f"configuration has faults: {detail}")
    exp = Experiment(
        vini, "iias", cpu_reservation=CPU_RESERVATION, realtime=REALTIME
    )
    for hostname in model.routers:
        exp.add_node(hostname, hostname)
    for link in model.links:
        exp.connect(link.router_a, link.router_b, cost=link.cost)
    hello, dead = _timers(model)
    exp.configure_ospf(hello_interval=hello, dead_interval=dead)
    return exp


def _timers(model: NetworkModel) -> Tuple[float, float]:
    """The network's hello/dead intervals, read off its first link
    (``check_model`` refuses a model whose links do not all agree);
    unset ones are the IOS defaults."""
    hello, dead = model.links[0].timers if model.links else (None, None)
    hello = 10.0 if hello is None else hello
    return hello, 4 * hello if dead is None else dead
