"""Experiment specification and orchestration.

Section 6.2: "VINI should provide the ability to specify experiments.
In an ns simulation, an experimenter can generate traffic and routing
streams, specify times when certain links should fail, and define the
traces that should be collected."

An :class:`Experiment` is that specification: a slice with isolation
parameters, a virtual topology, a routing configuration, a timetable of
fault-plan firings (:mod:`repro.faults.plan`), and the trace collector
the tools write into. The same object drives the paper's Section 5.2
experiment and every scenario.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.core.infrastructure import VINI
from repro.core.upcalls import UpcallDispatcher
from repro.core.virtual_network import VirtualLink, VirtualNetwork, VirtualNode
from repro.phys.vserver import OVERLAY_PREFIX


class Experiment:
    """A controlled experiment on a VINI deployment."""

    def __init__(
        self,
        vini: VINI,
        name: str = "experiment",
        cpu_share: float = 1.0,
        cpu_reservation: float = 0.0,
        realtime: bool = False,
        cpu_cap=None,
        tap_route_prefix: str = OVERLAY_PREFIX,
        tap_block: str = "10.0.0.0/16",
    ):
        self.vini = vini
        self.sim = vini.sim
        self.name = name
        self.slice = vini.create_slice(
            name,
            cpu_share=cpu_share,
            cpu_reservation=cpu_reservation,
            realtime=realtime,
            cpu_cap=cpu_cap,
        )
        # Large topologies (the internet zoo's ~1000 routers overflow the
        # default /16 tap block) pass a wider one.
        self.network = VirtualNetwork(self.sim, self.slice, tap_route_prefix, tap_block)
        self.upcalls = UpcallDispatcher(self.network)
        self._started = False

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        phys: Union[str, "PhysicalNode"],  # noqa: F821
        tap_addr: Optional[str] = None,
    ) -> VirtualNode:
        phys_node = self.vini.nodes[phys] if isinstance(phys, str) else phys
        return self.network.add_node(name, phys_node, tap_addr=tap_addr)

    def connect(
        self,
        a: str,
        b: str,
        cost: int = 1,
        bandwidth: Optional[float] = None,
        map_physical: bool = True,
    ) -> VirtualLink:
        """Create a virtual link; with ``map_physical`` the underlying
        physical link between the host nodes (if the virtual link maps
        1:1, as in the Abilene mirror) is recorded for upcalls."""
        vlink = self.network.connect(a, b, cost=cost, bandwidth=bandwidth)
        if map_physical:
            phys_a = self.network.nodes[a].phys_node.name
            phys_b = self.network.nodes[b].phys_node.name
            key = (min(phys_a, phys_b), max(phys_a, phys_b))
            plink = self.vini.links.get(key)
            if plink is not None:
                vlink.physical_links.append(plink)
        return vlink

    def configure_ospf(self, **kwargs) -> None:
        self.network.configure_ospf(**kwargs)

    # ------------------------------------------------------------------
    # Event timetable
    # ------------------------------------------------------------------
    def apply_faults(self, plan, offset: float = 0.0) -> None:
        """Install a :class:`repro.faults.FaultPlan` on this experiment.

        Plan times are relative; ``offset`` shifts the whole schedule
        (e.g. past a warmup). Every injection lands in the timetable.
        """
        plan.install(self, offset=offset)

    @property
    def events(self) -> List[Tuple[float, str, "FaultAction"]]:  # noqa: F821
        """``(absolute time, plan name, action)`` of every firing
        installed on this experiment or on the substrate under it, in
        scheduling order: the rows :func:`repro.core.spec.experiment_spec`
        serializes."""
        return [(time, plan, action)
                for time, plan, action, overlay in self.vini.faults
                if overlay is None or overlay is self]

    # ------------------------------------------------------------------
    def enable_upcalls(self) -> None:
        self.upcalls.enable()

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.network.start()

    def run(self, until: Optional[float] = None) -> float:
        self.start()
        return self.sim.run(until=until)

    def timetable(self) -> List[Tuple[float, str]]:
        """The experiment specification as (time, label) rows."""
        return sorted((time, action.label) for time, _plan, action in self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Experiment {self.name} nodes={len(self.network.nodes)} events={len(self.events)}>"
