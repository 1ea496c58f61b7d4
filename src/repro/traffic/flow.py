"""The fluid flow demand model.

A :class:`FluidFlow` is one background transfer (or an aggregate of
``count`` identical transfers) modelled at flow level: no packets, just
a demand, an optional finite size, and a rate the fair-share solver
assigns.
"""

from __future__ import annotations

from typing import Optional


class FluidFlow:
    """One fluid background flow (or an aggregate of identical flows).

    Created via :meth:`FluidTrafficPlane.add_flow`; the plane owns the
    rate. ``size_bytes=None`` means a persistent flow that runs until
    :meth:`stop`; a finite size completes once the class's cumulative
    per-flow service covers it.
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "demand_bps",
        "size_bytes",
        "window_bytes",
        "count",
        "start",
        "end",
        "_cls",
        "_served0",
        "_served1",
        "_plane",
    )

    def __init__(
        self,
        fid: int,
        src: str,
        dst: str,
        demand_bps: Optional[float],
        size_bytes: Optional[float],
        window_bytes: Optional[float],
        count: int,
    ):
        self.fid = fid
        self.src = src
        self.dst = dst
        self.demand_bps = demand_bps
        self.size_bytes = size_bytes
        self.window_bytes = window_bytes
        self.count = count
        self.start = 0.0
        self.end: Optional[float] = None  # set at completion / stop
        self._cls = None  # the _FlowClass carrying this flow
        self._served0 = 0.0  # class cumulative service at entry
        self._served1 = 0.0  # ... and at exit (the class serves on)
        self._plane = None

    @property
    def active(self) -> bool:
        return self.end is None

    @property
    def rate_bps(self) -> float:
        """Current solver-assigned per-flow rate (0 when done/blocked)."""
        if self.end is not None or self._cls is None:
            return 0.0
        return self._cls.rate_bps if not self._cls.blocked else 0.0

    @property
    def served_bytes(self) -> float:
        """Bytes delivered to each flow of this entry so far."""
        if self._cls is None:
            return 0.0
        if self.end is None and self._plane is not None:
            # The service integral advances lazily (on solve/completion
            # events); bring it up to the current instant for the read.
            self._plane._advance((self._cls,), self._plane.sim.now)
        last = self._cls.served if self.end is None else self._served1
        served = last - self._served0
        if self.size_bytes is not None:
            served = min(served, float(self.size_bytes))
        return max(served, 0.0)

    def stop(self) -> None:
        """Tear the flow down early (a user abandoning the transfer)."""
        if self._plane is not None and self.end is None:
            self._plane.remove_flow(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.end is not None else "active"
        extra = f" x{self.count}" if self.count != 1 else ""
        return (
            f"<FluidFlow #{self.fid} {self.src}->{self.dst}{extra} "
            f"{state} rate={self.rate_bps:.0f}b/s>"
        )
