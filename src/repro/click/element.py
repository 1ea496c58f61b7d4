"""Click element base class and port wiring.

Elements process packets and hand them to downstream neighbors through
numbered output ports, exactly like Click's push connections. A packet
traverses the graph synchronously: the CPU cost of the whole traversal
is charged once, when the packet enters the Click process (socket read
or tap read) — matching the paper's observation that the per-packet
cost is dominated by the syscalls at the edges of the graph, not the
element code in the middle.

The push chain is resolved at wiring time, as Click does: connecting a
port binds ``Port.push`` to the target's ``push`` for that input port,
so an element hands a packet on with ``self.outputs[i].push(packet)``
and the next frame is the downstream element's own.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.net.packet import Packet


class Port:
    """An output port: ``push(packet)`` hands a packet to the connected
    input port. :meth:`connect` is the only way to point (or re-point)
    a port; it rebinds ``push``."""

    __slots__ = ("element", "index", "target", "target_port", "push")

    def __init__(self, element: "Element", index: int):
        self.element = element
        self.index = index
        self.target: Optional["Element"] = None
        self.target_port = 0
        self.push: Callable[[Packet], None] = self._unconnected

    def connect(self, target: "Element", target_port: int = 0, replace: bool = False) -> None:
        if self.target is not None and not replace:
            raise ValueError(
                f"{self.element.name}[{self.index}] is already connected"
            )
        self.target = target
        self.target_port = target_port
        self.push = partial(target.push, target_port)

    def _unconnected(self, packet: Packet) -> None:
        # Click would fail at config time; we drop and trace so
        # misconfigurations are visible in tests.
        self.element.router.trace_drop(packet, f"{self.element.name}[{self.index}] unconnected")


class Element:
    """Base class for all Click elements.

    Subclasses declare ``n_outputs`` (or pass it to ``__init__``) and
    override :meth:`push`. The router assigns ``name`` and ``router``
    at add time. Upstream ports bind ``push`` when they are connected,
    so replacing ``push`` on an instance that is already wired is not
    supported: subclass instead.
    """

    n_outputs = 1

    def __init__(self, n_outputs: Optional[int] = None):
        count = self.n_outputs if n_outputs is None else n_outputs
        self.outputs: List[Port] = [Port(self, i) for i in range(count)]
        self.name = type(self).__name__
        self.router: "ClickRouter" = None  # noqa: F821 - set by router

    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Hook called once the router graph is complete."""

    def push(self, port: int, packet: Packet) -> None:  # pragma: no cover
        raise NotImplementedError

    def output(self, index: int = 0) -> Port:
        return self.outputs[index]

    def add_output(self) -> int:
        """Grow the element by one output port; returns its index.

        Used by the virtual-network assembler, which adds tunnels (and
        their EncapTable/demux ports) incrementally as virtual links
        are created.
        """
        index = len(self.outputs)
        self.outputs.append(Port(self, index))
        return index

    def connect(self, target: "Element", out_port: int = 0, in_port: int = 0) -> "Element":
        """Wire ``self[out_port] -> [in_port]target``; returns target for chaining."""
        self.outputs[out_port].connect(target, in_port)
        return target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
