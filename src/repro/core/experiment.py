"""Experiment specification and orchestration.

Section 6.2: "VINI should provide the ability to specify experiments.
In an ns simulation, an experimenter can generate traffic and routing
streams, specify times when certain links should fail, and define the
traces that should be collected."

An :class:`Experiment` is that specification: a slice with isolation
parameters, a virtual topology, a routing configuration, a timetable of
events (link failures/recoveries, traffic start/stop, arbitrary
callables), and the trace collector the tools write into. The same
object drives the paper's Section 5.2 experiment and every scenario.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.infrastructure import VINI
from repro.core.upcalls import UpcallDispatcher
from repro.core.virtual_network import VirtualLink, VirtualNetwork, VirtualNode
from repro.obs.archive import attach_from_env


class ExperimentEvent:
    """One scheduled event in the experiment's timetable."""

    __slots__ = ("time", "label", "fn", "args")

    def __init__(self, time: float, label: str, fn: Callable, args: tuple):
        self.time = time
        self.label = label
        self.fn = fn
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExperimentEvent t={self.time:g} {self.label}>"


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
        tap_route_prefix: str = "10.0.0.0/8",
        tap_block: Optional[str] = None,
        link_block: Optional[str] = None,
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
        # tap/link blocks default inside VirtualNetwork; large topologies
        # (the internet zoo's ~1000 routers overflow the default /16 tap
        # block) pass wider ones through.
        net_kwargs = {}
        if tap_block is not None:
            net_kwargs["tap_block"] = tap_block
        if link_block is not None:
            net_kwargs["link_block"] = link_block
        self.network = VirtualNetwork(
            self.sim, self.slice, tap_route_prefix=tap_route_prefix, **net_kwargs
        )
        self.upcalls = UpcallDispatcher(self.network)
        self.events: List[ExperimentEvent] = []
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
    def at(self, time: float, fn: Callable, *args: Any, label: str = "") -> ExperimentEvent:
        event = ExperimentEvent(time, label or getattr(fn, "__name__", "event"), fn, args)
        self.events.append(event)
        self.sim.schedule(time, fn, *args)
        return event

    def fail_link_at(self, time: float, a: str, b: str) -> ExperimentEvent:
        """Fail the virtual link (Click-level drop, Section 5.2)."""
        return self.at(
            time, self.network.fail_link, a, b, label=f"fail {a}={b}"
        )

    def recover_link_at(self, time: float, a: str, b: str) -> ExperimentEvent:
        return self.at(
            time, self.network.recover_link, a, b, label=f"recover {a}={b}"
        )

    def fail_physical_at(self, time: float, a: str, b: str) -> ExperimentEvent:
        link = self.vini.link_between(a, b)
        return self.at(time, link.fail, label=f"fail physical {a}--{b}")

    def recover_physical_at(self, time: float, a: str, b: str) -> ExperimentEvent:
        link = self.vini.link_between(a, b)
        return self.at(time, link.recover, label=f"recover physical {a}--{b}")

    def apply_faults(self, plan, offset: float = 0.0):
        """Install a :class:`repro.faults.FaultPlan` on this experiment.

        Plan times are relative; ``offset`` shifts the whole schedule
        (e.g. past a warmup). Every injection lands in the timetable
        like a hand-written ``at()`` call.
        """
        return plan.install(self, offset=offset)

    # ------------------------------------------------------------------
    def enable_upcalls(self) -> None:
        self.upcalls.enable()

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.network.start()

    def run(self, until: Optional[float] = None) -> float:
        self.start()
        archive = attach_from_env(self.sim, until=until, experiment=self)
        result = self.sim.run(until=until)
        if archive is not None:
            archive.write()
        return result

    def timetable(self) -> List[Tuple[float, str]]:
        """The experiment specification as (time, label) rows."""
        return sorted((e.time, e.label) for e in self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Experiment {self.name} nodes={len(self.network.nodes)} events={len(self.events)}>"
