"""Timer conveniences built on the event engine.

Routing protocols are timer machines (hello intervals, dead intervals,
LSA refresh, RTO). These helpers keep that code free of raw event
bookkeeping. Both arm one-shot events through ``sim.at``, the engine's
one way to arm an event: a periodic timer pushes its next tick as each
tick fires, before the callback runs.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator


class PeriodicTimer:
    """Fires ``fn`` every ``interval`` seconds until stopped.

    An optional ``jitter`` fraction draws each period uniformly from
    ``[interval * (1 - jitter), interval]``, the standard trick routing
    daemons use to avoid synchronized hellos.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[[], Any],
        jitter: float = 0.0,
        rng_stream: str = "timers",
        start: bool = True,
    ):
        if not 0 < interval < math.inf:  # NaN too
            raise ValueError(f"interval must be positive and finite, got {interval!r}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter!r}")
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.jitter = jitter
        self.rng_stream = rng_stream
        self._event: Optional[list] = None
        self._running = False
        if start:
            self.start()

    def _next_delay(self) -> float:
        if self.jitter == 0.0:
            return self.interval
        rng = self.sim.rng(self.rng_stream)
        return self.interval * (1.0 - self.jitter * rng.random())

    def _fire(self) -> None:
        # Re-armed before the callback runs, so the callback can stop
        # its own series.
        self._event = self.sim.at(self._next_delay(), self._fire)
        self.fn()

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._event = self.sim.at(self._next_delay(), self._fire)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def reschedule(self) -> None:
        """Restart the period from now."""
        self.stop()
        self.start()

    @property
    def running(self) -> bool:
        return self._running


class Timeout:
    """A restartable one-shot timer (e.g. an OSPF dead timer or TCP RTO).

    ``restart()`` pushes the deadline out by ``delay`` from now;
    ``cancel()`` disarms it. The callback runs at most once per arm.
    """

    def __init__(self, sim: Simulator, delay: float, fn: Callable[[], Any]):
        if not delay > 0:  # NaN too
            raise ValueError(f"delay must be positive, got {delay!r}")
        self.sim = sim
        self.delay = delay
        self.fn = fn
        self._event: Optional[list] = None

    def restart(self, delay: Optional[float] = None) -> None:
        if delay is not None:
            if not delay > 0:
                raise ValueError(f"delay must be positive, got {delay!r}")
            self.delay = delay
        self.cancel()
        self._event = self.sim.at(self.delay, self._expire)

    # "start" reads better at call sites arming a fresh timer.
    start = restart

    def _expire(self) -> None:
        self._event = None
        self.fn()

    def cancel(self) -> None:
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    @property
    def armed(self) -> bool:
        return self._event is not None

    @property
    def expires_at(self) -> Optional[float]:
        return self._event[0] if self._event is not None else None
