"""The deterministic event-schedule DSL, and the one timetable.

Section 6.2: "In an ns simulation, an experimenter can generate traffic
and routing streams, specify times when certain links should fail, and
define the traces that should be collected." A :class:`FaultPlan` is
that specification for failures: a declarative timetable of injections,
built once and installed onto any number of deployments.

Design rules that make plans *controlled* in the paper's sense:

* Times in a plan are relative; ``install(target, offset=...)`` places
  the whole plan on the simulation clock, so the same plan can run
  after different warmups.
* Deterministic actions draw no randomness. Seeded-random generators
  (:meth:`FaultPlan.random_flaps`, :meth:`FaultPlan.random_loss_episodes`)
  expand at install time from a named stream of the target simulator's
  :class:`~repro.sim.rand.RandomStreams`, so two runs with the same
  master seed replay the identical schedule and two plans cannot
  perturb each other's draws.
* Each kind means one thing, whatever the plan is installed on
  (``_KINDS``). ``fail_link``, ``recover_link``, ``set_loss``,
  ``crash_node`` and ``restart_node`` act on an experiment's virtual
  overlay (the paper's method: virtual links fail by dropping packets
  inside Click); the ``*_physical`` kinds and ``cpu_burst`` act on the
  physical substrate under it (fate sharing, Section 3.1). ``install``
  resolves every action before it schedules any, so an overlay kind on
  a bare VINI, or a name the target does not have, is refused there
  (:class:`UnsupportedFault`), never mid-run.
* Each firing is one ordinary engine event that logs a ``fault`` trace
  record and then calls exactly the function an inline experiment
  script would have called — a plan-driven run is event-for-event
  identical to a hand-scheduled one (the golden-trace test in
  ``tests/faults`` enforces this).
* Every installed firing lands in the deployment's timetable,
  ``VINI.faults``, in scheduling order. An experiment's spec ``events``
  are those rows serialized (:mod:`repro.core.spec`), and a spec is
  rebuilt through this same path.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple


class UnsupportedFault(Exception):
    """The install target cannot carry out a plan action: an overlay kind
    on a bare VINI, or a name the target does not have."""


def _positive(name: str, value: float) -> None:
    """Refuse ``value`` unless it is positive and finite (NaN included)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


# kind -> (label, what it acts on, the method it calls there, arity).
# "vlink"/"vnode" are an experiment's virtual overlay, "link"/"node" the
# physical substrate. ``call`` is ``at()``'s escape hatch: any callable
# and its arguments, the one kind no spec can carry.
_KINDS = {
    "call": ("call", None, None, None),
    "fail_link": ("fail {}={}", "vlink", "fail", 2),
    "recover_link": ("recover {}={}", "vlink", "recover", 2),
    "set_loss": ("loss {}={} p={:g}", "vlink", "set_loss", 3),
    "crash_node": ("crash {}", "vnode", "crash", 1),
    "restart_node": ("restart {}", "vnode", "restart", 1),
    "fail_physical": ("fail physical {}--{}", "link", "fail", 2),
    "recover_physical": ("recover physical {}--{}", "link", "recover", 2),
    "crash_physical": ("crash physical {}", "node", "crash", 1),
    "restart_physical": ("restart physical {}", "node", "restart", 1),
    "cpu_burst": ("cpu burst {} {:g}s", "node", None, 4),
}


class FaultAction:
    """One scheduled injection: ``kind(*args)`` at plan-relative ``time``.

    ``label`` defaults to the kind's wording of ``args``.
    """

    __slots__ = ("time", "kind", "args", "label")

    def __init__(self, time: float, kind: str, args: tuple,
                 label: Optional[str] = None):
        if not 0 <= time < math.inf:
            raise ValueError(f"fault time must be finite and not negative, got {time!r}")
        if kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} (known: {', '.join(_KINDS)})")
        wording, _layer, _method, arity = _KINDS[kind]
        if arity is not None and len(args) != arity:
            raise ValueError(f"{kind} takes {arity} args, got {list(args)!r}")
        self.time = time
        self.kind = kind
        self.args = tuple(args)
        self.label = wording.format(*args) if label is None else label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultAction t={self.time:g} {self.label}>"


class FaultPlan:
    """A reproducible schedule of controlled network events.

    Builder methods return ``self`` so plans chain::

        plan = (FaultPlan("fig8")
                .fail_link(10.0, "denver", "kansascity", duration=24.0))
        exp.apply_faults(plan, offset=WARMUP)

    A plan is inert data until :meth:`install` binds it to a target —
    an :class:`~repro.core.experiment.Experiment` or a
    :class:`~repro.core.infrastructure.VINI` (substrate kinds only).
    The same plan may be installed any number of times, on any number
    of targets.
    """

    def __init__(self, name: str = "faults"):
        self.name = name
        self.actions: List[FaultAction] = []
        # Seeded-random expansions, run at install time against the
        # target simulator's named stream.
        self._generators: List[Callable[[random.Random], List[FaultAction]]] = []

    # ------------------------------------------------------------------
    # Deterministic actions
    # ------------------------------------------------------------------
    def _add(self, time: float, kind: str, *args: Any,
             label: Optional[str] = None) -> "FaultPlan":
        self.actions.append(FaultAction(time, kind, args, label))
        return self

    def _undone(self, at: float, kind: str, undo: str,
                duration: Optional[float], *args: Any) -> "FaultPlan":
        """``kind`` at ``at``; with ``duration``, ``undo`` that much later."""
        if duration is not None:
            _positive("duration", duration)
        self._add(at, kind, *args)
        return self if duration is None else self._add(at + duration, undo, *args)

    def fail_link(
        self, at: float, a: str, b: str, duration: Optional[float] = None
    ) -> "FaultPlan":
        """Fail the virtual link ``a``=``b``; with ``duration``, auto-recover."""
        return self._undone(at, "fail_link", "recover_link", duration, a, b)

    def recover_link(self, at: float, a: str, b: str) -> "FaultPlan":
        return self._add(at, "recover_link", a, b)

    def fail_physical(
        self, at: float, a: str, b: str, duration: Optional[float] = None
    ) -> "FaultPlan":
        """Fail the physical link ``a``--``b`` (and every virtual link
        riding it); with ``duration``, auto-recover."""
        return self._undone(at, "fail_physical", "recover_physical",
                            duration, a, b)

    def recover_physical(self, at: float, a: str, b: str) -> "FaultPlan":
        return self._add(at, "recover_physical", a, b)

    def flap_link(
        self,
        a: str,
        b: str,
        start: float,
        down: float,
        up: float,
        count: int = 1,
    ) -> "FaultPlan":
        """``count`` fail/recover cycles: down for ``down`` s, up for ``up`` s."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        if down <= 0 or up < 0:
            raise ValueError(f"bad flap timing down={down!r} up={up!r}")
        t = start
        for _ in range(count):
            self.fail_link(t, a, b, duration=down)
            t += down + up
        return self

    def crash_node(
        self, at: float, name: str, duration: Optional[float] = None
    ) -> "FaultPlan":
        """Crash a virtual router; with ``duration``, restart it afterwards."""
        return self._undone(at, "crash_node", "restart_node", duration, name)

    def restart_node(self, at: float, name: str) -> "FaultPlan":
        return self._add(at, "restart_node", name)

    def crash_physical(
        self, at: float, name: str, duration: Optional[float] = None
    ) -> "FaultPlan":
        """Crash a physical node; with ``duration``, restart it afterwards."""
        return self._undone(at, "crash_physical", "restart_physical",
                            duration, name)

    def restart_physical(self, at: float, name: str) -> "FaultPlan":
        return self._add(at, "restart_physical", name)

    def loss_episode(
        self, at: float, a: str, b: str, duration: float, drop_prob: float
    ) -> "FaultPlan":
        """Random loss on virtual link ``a``--``b`` for ``duration`` s.

        Restores a loss-free link afterwards (episodes assume the link's
        baseline drop probability is 0, the overlay default).
        """
        _positive("duration", duration)
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {drop_prob!r}")
        self._add(at, "set_loss", a, b, drop_prob)
        return self._add(at + duration, "set_loss", a, b, 0.0)

    def cpu_burst(
        self,
        at: float,
        node: str,
        duration: float,
        share: float = 1.0,
        quantum: float = 0.005,
    ) -> "FaultPlan":
        """A CPU-contention burst: a hog slice monopolizes physical node
        ``node`` for ``duration`` seconds (the fluctuating PlanetLab load
        of Section 5.1.2, on demand)."""
        _positive("duration", duration)
        _positive("share", share)
        _positive("quantum", quantum)
        return self._add(at, "cpu_burst", node, duration, share, quantum)

    def at(self, time: float, fn: Callable, *args: Any, label: str = "") -> "FaultPlan":
        """Escape hatch: schedule an arbitrary callable as a fault event.
        A callable has no spec form, so its experiment has none either."""
        return self._add(time, "call", fn, *args,
                         label=label or getattr(fn, "__name__", "call"))

    # ------------------------------------------------------------------
    # Seeded-random generators (expanded at install time)
    # ------------------------------------------------------------------
    def random_flaps(
        self,
        links: Sequence[Tuple[str, str]],
        window: Tuple[float, float],
        count: int,
        down: Tuple[float, float] = (0.5, 2.0),
    ) -> "FaultPlan":
        """``count`` virtual-link flaps drawn from the plan's seeded
        stream: uniform start times in ``window``, uniform outage lengths
        in ``down``, links chosen uniformly."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        links = [tuple(pair) for pair in links]
        t0, t1 = window
        lo, hi = down
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"down must be 0 < lo <= hi < inf, got {down!r}")

        def expand(rng: random.Random) -> List[FaultAction]:
            actions: List[FaultAction] = []
            for _ in range(count):
                a, b = rng.choice(links)
                start = rng.uniform(t0, t1)
                outage = rng.uniform(lo, hi)
                actions.append(FaultAction(start, "fail_link", (a, b)))
                actions.append(FaultAction(start + outage, "recover_link", (a, b)))
            return actions

        self._generators.append(expand)
        return self

    def random_loss_episodes(
        self,
        links: Sequence[Tuple[str, str]],
        window: Tuple[float, float],
        count: int,
        duration: Tuple[float, float] = (1.0, 5.0),
        drop_prob: Tuple[float, float] = (0.05, 0.3),
    ) -> "FaultPlan":
        """``count`` loss episodes drawn from the plan's seeded stream."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        links = [tuple(pair) for pair in links]
        t0, t1 = window
        dlo, dhi = duration
        plo, phi = drop_prob
        if not 0 < dlo <= dhi < math.inf:
            raise ValueError(
                f"duration must be 0 < lo <= hi < inf, got {duration!r}")
        if not 0.0 <= plo <= phi <= 1.0:
            raise ValueError(
                f"drop_prob must be 0 <= lo <= hi <= 1, got {drop_prob!r}")

        def expand(rng: random.Random) -> List[FaultAction]:
            actions: List[FaultAction] = []
            for _ in range(count):
                a, b = rng.choice(links)
                start = rng.uniform(t0, t1)
                length = rng.uniform(dlo, dhi)
                p = rng.uniform(plo, phi)
                actions.append(FaultAction(start, "set_loss", (a, b, p)))
                actions.append(FaultAction(start + length, "set_loss", (a, b, 0.0)))
            return actions

        self._generators.append(expand)
        return self

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def resolve(self, sim) -> List[FaultAction]:
        """The full action list, generators expanded against ``sim``'s
        seeded stream, sorted by (time, build order)."""
        actions = list(self.actions)
        if self._generators:
            rng = sim.rng(f"faults.{self.name}")
            for expand in self._generators:
                actions.extend(expand(rng))
        # Stable sort: ties fire in build order, deterministically.
        return sorted(actions, key=lambda action: action.time)

    def install(self, target, offset: float = 0.0) -> None:
        """Schedule every action on ``target``, an
        :class:`~repro.core.experiment.Experiment` or a
        :class:`~repro.core.infrastructure.VINI`, and record each firing
        in its timetable (``VINI.faults``).

        Every action is resolved before any is scheduled: a plan the
        target cannot carry out raises :class:`UnsupportedFault` naming
        the kind and the name, and schedules nothing.
        """
        vini, experiment = _deployment(target)
        sim = vini.sim
        bound = [(action, _bind(action, vini, experiment))
                 for action in self.resolve(sim)]
        for action, (overlay, fn) in bound:
            time = offset + action.time
            vini.faults.append((time, self.name, action, overlay))
            sim.schedule(time, self._fire, sim, action, fn)

    def _fire(self, sim, action: FaultAction, fn: Callable[[], None]) -> None:
        trace = sim.trace
        if trace.wants("fault"):
            trace.log("fault", plan=self.name, action=action.kind,
                      label=action.label)
        fn()

    # ------------------------------------------------------------------
    def timetable(self, sim=None) -> List[Tuple[float, str]]:
        """(time, label) rows; generator rows need ``sim`` to expand."""
        actions = self.resolve(sim) if sim is not None else sorted(
            self.actions, key=lambda action: action.time
        )
        return [(action.time, action.label) for action in actions]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultPlan {self.name!r} actions={len(self.actions)} "
            f"generators={len(self._generators)}>"
        )


# ----------------------------------------------------------------------
# The one resolver
# ----------------------------------------------------------------------
def _deployment(target):
    """``(vini, experiment or None)`` of an install target."""
    from repro.core.experiment import Experiment
    from repro.core.infrastructure import VINI

    if isinstance(target, Experiment):
        return target.vini, target
    if isinstance(target, VINI):
        return target, None
    raise TypeError(
        f"cannot install a FaultPlan on {type(target).__name__}; "
        "expected an Experiment or a VINI"
    )


def _bind(action: FaultAction, vini, experiment):
    """``(overlay, fn)``: what firing ``action`` calls, and the experiment
    whose overlay it acts on (None for the substrate, which every
    experiment on ``vini`` shares)."""
    kind, args = action.kind, action.args
    if kind == "call":
        if not args or not callable(args[0]):
            raise UnsupportedFault(f"call {action.label!r} names no callable")
        return experiment, partial(args[0], *args[1:])
    _wording, layer, method, _arity = _KINDS[kind]
    overlay = experiment if layer.startswith("v") else None
    if layer.startswith("v") and experiment is None:
        raise UnsupportedFault(
            f"{kind} acts on an experiment's virtual overlay; install the "
            "plan on the Experiment, not on its VINI")
    names = args[:2] if layer.endswith("link") else args[:1]
    try:
        if layer == "vlink":
            found = experiment.network.link_between(*names)
        elif layer == "vnode":
            found = experiment.network.nodes[names[0]]
        elif layer == "link":
            found = vini.link_between(*names)
        else:
            found = vini.nodes[names[0]]
    except (KeyError, TypeError):
        noun, sep = {"vlink": ("virtual link", "="), "vnode": ("virtual node", ""),
                     "link": ("physical link", "--"), "node": ("physical node", "")}[layer]
        raise UnsupportedFault(f"{kind}: args {list(args)!r} name no {noun} "
                               f"{sep.join(map(str, names))}") from None
    rest = args[len(names):]
    if method is None:
        return overlay, partial(_cpu_burst, found, *rest)
    return overlay, partial(getattr(found, method), *rest)


def _cpu_burst(node, duration: float, share: float, quantum: float) -> None:
    from repro.phys.load import CPUHog

    # Numbered per node, not per install: two plans bursting one node
    # start distinct hogs, and a spec-rebuilt run names them alike.
    index = sum(p.name.startswith("faultburst") for p in node.cpu.processes)
    hog = CPUHog(
        node,
        name=f"faultburst{index}",
        quantum=quantum,
        heavy_tail_prob=0.0,
        share=share,
        rng_stream=f"faults.burst.{node.name}.{index}",
    ).start()
    node.sim.at(duration, hog.stop)
