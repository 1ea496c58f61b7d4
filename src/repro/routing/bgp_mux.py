"""The BGP multiplexer (Section 6.1).

"We are designing and implementing a multiplexer that manages BGP
sessions with neighboring networks and forwards (and filters) routing
protocol messages between the external speakers and the BGP speakers on
the virtual nodes. Each experiment might have its own portion of a
larger address block that has already been allocated to VINI. The
multiplexer ensures that each virtual node announces only its own
address space and may also impose limits on the rate of BGP update
messages that are propagated from each experiment."

The multiplexer is itself a set of BGP speakers: one session to the
external operational router, and one session per experiment. Toward the
external world all experiments appear behind a single, stable session —
the scaling/management/stability concerns of Section 3.4. Toward each
experiment it enforces:

* **prefix ownership** — announcements outside the experiment's
  delegated sub-block are dropped (and counted);
* **update rate limits** — a token bucket per experiment bounds the
  BGP churn an unstable prototype can leak into the real Internet.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.routing.bgp import BGPDaemon, BGPRoute, BGPSession, DirectTransport
from repro.sim.engine import Simulator


class _RateLimiter:
    """Token bucket over BGP updates."""

    def __init__(self, sim: Simulator, rate: float, burst: float):
        self.sim = sim
        self.rate = rate  # updates per second
        self.burst = burst
        self.tokens = burst
        self._stamp = sim.now
        self.dropped = 0

    def allow(self) -> bool:
        now = self.sim.now
        self.tokens = min(self.burst, self.tokens + self.rate * (now - self._stamp))
        self._stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        self.dropped += 1
        return False


class _ClientPort:
    """The multiplexer's view of one experiment."""

    def __init__(
        self,
        mux: "BGPMultiplexer",
        name: str,
        allowed: Prefix,
        limiter: _RateLimiter,
    ):
        self.mux = mux
        self.name = name
        self.allowed = allowed
        self.limiter = limiter
        self.filtered = 0

    def import_filter(self, route: BGPRoute) -> Optional[BGPRoute]:
        """Applied to announcements *from* the experiment."""
        trace = self.mux.sim.trace
        if route.prefix not in self.allowed:
            self.filtered += 1
            if trace.wants("bgp_mux_filtered"):
                trace.log(
                    "bgp_mux_filtered", client=self.name, prefix=str(route.prefix)
                )
            return None
        if not self.limiter.allow():
            if trace.wants("bgp_mux_ratelimited"):
                trace.log(
                    "bgp_mux_ratelimited", client=self.name, prefix=str(route.prefix)
                )
            return None
        return route


class BGPMultiplexer:
    """Shares one external BGP session among many experiments."""

    def __init__(
        self,
        sim: Simulator,
        asn: int,
        router_id: Union[int, str, IPv4Address],
        vini_block: Union[str, Prefix] = "198.18.0.0/16",
    ):
        self.sim = sim
        self.vini_block = prefix(vini_block)
        self.daemon = BGPDaemon(sim, asn, router_id, rib=None, name="bgp-mux")
        self.clients: Dict[str, _ClientPort] = {}
        self.external_session: Optional[BGPSession] = None
        sim.metrics.gauge(
            "bgp.mux_clients", fn=lambda: float(len(self.clients))
        )

    # ------------------------------------------------------------------
    def attach_external(
        self,
        transport: DirectTransport,
        peer_asn: int,
    ) -> BGPSession:
        """Open the single session to the external operational router."""
        if self.external_session is not None:
            raise RuntimeError("external session already attached")
        self.external_session = self.daemon.add_session(
            transport, peer_asn, name="external"
        )
        self.external_session.start()
        return self.external_session

    def add_client(
        self,
        name: str,
        transport: DirectTransport,
        client_asn: int,
        allowed: Union[str, Prefix],
        max_update_rate: float = 1.0,
        burst: float = 5.0,
    ) -> BGPSession:
        """Register an experiment behind the multiplexer.

        ``allowed`` must be a sub-block of the VINI allocation; the
        client may only announce prefixes inside it.
        """
        if name in self.clients:
            raise ValueError(f"duplicate mux client {name!r}")
        allowed = prefix(allowed)
        if allowed not in self.vini_block:
            raise ValueError(
                f"client block {allowed} is outside the VINI allocation {self.vini_block}"
            )
        for other in self.clients.values():
            if other.allowed.overlaps(allowed):
                raise ValueError(
                    f"client block {allowed} overlaps {other.name}'s {other.allowed}"
                )
        limiter = _RateLimiter(self.sim, max_update_rate, burst)
        port = _ClientPort(self, name, allowed, limiter)
        self.sim.metrics.counter(
            "bgp.mux_filtered", fn=lambda: float(port.filtered), client=name
        )
        self.sim.metrics.counter(
            "bgp.mux_ratelimited", fn=lambda: float(limiter.dropped), client=name
        )
        session = self.daemon.add_session(
            transport,
            client_asn,
            name=name,
            import_policy=port.import_filter,
            mrai=0.5,
        )
        self.clients[name] = port
        session.start()
        return session

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "filtered": port.filtered,
                "ratelimited": port.limiter.dropped,
            }
            for name, port in self.clients.items()
        }
