"""BGP-4: external routing for VINI experiments.

Section 3.2 requires each experiment's routing to discover "routes to
external destinations", and Section 3.4 requires experiments to
exchange BGP announcements with real neighboring networks. This module
implements the BGP machinery those experiments run: sessions with
OPEN/KEEPALIVE/UPDATE/NOTIFICATION semantics and hold timers, adj-RIBs,
the standard decision process, policy hooks, MRAI batching, AS-path
loop prevention, and RIB installation — enough to drive the Section 6.1
BGP multiplexer and end-to-end route propagation experiments.

Sessions run over a reliable, ordered transport abstraction
(:class:`DirectTransport` provides an in-memory pair with delay and
failure injection, standing in for the TCP connection real BGP uses).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.routing.rib import AdminDistance, RIB, RibRoute
from repro.sim.engine import Simulator
from repro.sim.timer import PeriodicTimer, Timeout

HOLD_TIME = 90.0
DEFAULT_MRAI = 5.0  # paper-era eBGP default is 30 s; short for experiments

ORIGIN_IGP = 0
ORIGIN_EGP = 1
ORIGIN_INCOMPLETE = 2

IDLE = "Idle"
OPEN_SENT = "OpenSent"
ESTABLISHED = "Established"


class BGPRoute:
    """A BGP path for one prefix."""

    __slots__ = ("prefix", "as_path", "nexthop", "local_pref", "origin")

    def __init__(
        self,
        pfx: Union[str, Prefix],
        as_path: Tuple[int, ...],
        nexthop: Union[str, IPv4Address],
        local_pref: int = 100,
        origin: int = ORIGIN_IGP,
    ):
        self.prefix = prefix(pfx)
        self.as_path = tuple(as_path)
        self.nexthop = ip(nexthop)
        self.local_pref = local_pref
        self.origin = origin

    def copy(self) -> "BGPRoute":
        return BGPRoute(
            self.prefix, self.as_path, self.nexthop, self.local_pref, self.origin
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BGPRoute {self.prefix} as_path={self.as_path} nh={self.nexthop}>"


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
class Open:
    __slots__ = ("asn", "router_id")

    def __init__(self, asn: int, router_id: int):
        self.asn = asn
        self.router_id = router_id


class Update:
    __slots__ = ("announce", "withdraw")

    def __init__(self, announce: List[BGPRoute], withdraw: List[Prefix]):
        self.announce = announce
        self.withdraw = withdraw


class Keepalive:
    __slots__ = ()


class Notification:
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
class DirectTransport:
    """One endpoint of a reliable in-order message channel."""

    def __init__(self, sim: Simulator, delay: float):
        self.sim = sim
        self.delay = delay
        self.peer: Optional["DirectTransport"] = None
        self.on_receive: Optional[Callable[[object], None]] = None
        self.on_down: Optional[Callable[[], None]] = None
        self.up = True
        self.silent = False

    @classmethod
    def pair(cls, sim: Simulator, delay: float = 0.010) -> Tuple["DirectTransport", "DirectTransport"]:
        a, b = cls(sim, delay), cls(sim, delay)
        a.peer, b.peer = b, a
        return a, b

    def send(self, message: object) -> None:
        if not self.up or self.silent or self.peer is None:
            return
        self.sim.at(self.delay, self.peer._deliver, message)

    def _deliver(self, message: object) -> None:
        if self.up and self.on_receive is not None:
            self.on_receive(message)

    def fail(self) -> None:
        """Break the channel both ways (a TCP session reset)."""
        for endpoint in (self, self.peer):
            if endpoint is not None and endpoint.up:
                endpoint.up = False
                if endpoint.on_down is not None:
                    endpoint.on_down()

    def blackhole(self) -> None:
        """Silently drop messages both ways *without* signalling either
        endpoint. Unlike :meth:`fail`, neither side's ``on_down`` fires:
        the control plane cannot see the break, so routes through the
        peer stay installed (stuck) until hold timers expire."""
        for endpoint in (self, self.peer):
            if endpoint is not None:
                endpoint.silent = True

    def restore(self) -> None:
        for endpoint in (self, self.peer):
            if endpoint is not None:
                endpoint.up = True
                endpoint.silent = False


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class BGPSession:
    """One configured peering of a :class:`BGPDaemon`."""

    def __init__(
        self,
        daemon: "BGPDaemon",
        transport: DirectTransport,
        peer_asn: int,
        name: str = "",
        mrai: float = DEFAULT_MRAI,
        import_policy: Optional[Callable[[BGPRoute], Optional[BGPRoute]]] = None,
        local_addr: Optional[Union[str, IPv4Address]] = None,
        nexthop_self: bool = False,
    ):
        self.daemon = daemon
        self.sim = daemon.sim
        self.transport = transport
        self.peer_asn = peer_asn
        self.name = name or f"as{peer_asn}"
        self.mrai = mrai
        self.import_policy = import_policy
        # Set by the policy that attaches to the session (GaoRexfordPolicy).
        self.export_policy: Optional[Callable[[BGPRoute], Optional[BGPRoute]]] = None
        # eBGP next hop: the address of our end of the shared subnet, so
        # the neighbor can resolve it against its connected route. Falls
        # back to the router id when the session has no local address.
        self.local_addr = ip(local_addr) if local_addr is not None else None
        # iBGP next-hop-self: rewrite eBGP-learned next hops to our own
        # router id, which every iBGP peer can reach through the IGP.
        self.nexthop_self = nexthop_self
        self.state = IDLE
        self.peer_router_id = 0
        self.adj_rib_in: Dict[Tuple[int, int], BGPRoute] = {}
        self.advertised: Dict[Tuple[int, int], BGPRoute] = {}
        self._pending_announce: Dict[Tuple[int, int], BGPRoute] = {}
        self._pending_withdraw: set = set()
        self._mrai_timer: Optional[object] = None
        self._hold_timer = Timeout(self.sim, HOLD_TIME, self._hold_expired)
        self._keepalive_timer = PeriodicTimer(
            self.sim, HOLD_TIME / 3.0, self._send_keepalive, start=False
        )
        transport.on_receive = self._receive
        transport.on_down = self._transport_down
        self.updates_sent = 0
        self.updates_received = 0
        metrics = self.sim.metrics
        labels = dict(daemon=daemon.name, peer=self.name)
        metrics.counter("bgp.updates_sent", fn=lambda: self.updates_sent, **labels)
        metrics.counter("bgp.updates_received", fn=lambda: self.updates_received, **labels)

    @property
    def is_ebgp(self) -> bool:
        return self.peer_asn != self.daemon.asn

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.state != IDLE:
            return
        self.state = OPEN_SENT
        self.transport.send(Open(self.daemon.asn, self.daemon.router_id))
        self._hold_timer.restart()

    def _receive(self, message: object) -> None:
        if isinstance(message, Open):
            self._on_open(message)
        elif isinstance(message, Keepalive):
            self._hold_timer.restart()
        elif isinstance(message, Update):
            self._hold_timer.restart()
            self._on_update(message)
        elif isinstance(message, Notification):
            self._go_down(f"notification: {message.reason}")

    def _on_open(self, message: Open) -> None:
        if message.asn != self.peer_asn:
            self.transport.send(Notification("bad peer AS"))
            self._go_down("bad peer AS")
            return
        self.peer_router_id = message.router_id
        if self.state == IDLE:
            # Passive side: respond with our own OPEN.
            self.transport.send(Open(self.daemon.asn, self.daemon.router_id))
        self.state = ESTABLISHED
        self._hold_timer.restart()
        self._keepalive_timer.reschedule()
        self.transport.send(Keepalive())
        self.sim.trace.log(
            "bgp_session", daemon=self.daemon.name, peer=self.name, state=ESTABLISHED
        )
        self.daemon._session_established(self)

    def _send_keepalive(self) -> None:
        if self.state == ESTABLISHED:
            self.transport.send(Keepalive())

    def _hold_expired(self) -> None:
        self._go_down("hold timer expired")

    def _transport_down(self) -> None:
        self._go_down("transport down")

    def _go_down(self, reason: str) -> None:
        if self.state == IDLE:
            return
        self.state = IDLE
        self._hold_timer.cancel()
        self._keepalive_timer.stop()
        self.sim.trace.log(
            "bgp_session", daemon=self.daemon.name, peer=self.name, state=IDLE,
            reason=reason,
        )
        learned = list(self.adj_rib_in.values())
        self.adj_rib_in.clear()
        self.advertised.clear()
        self._pending_announce.clear()
        self._pending_withdraw.clear()
        self.daemon._session_down(self, learned)

    # ------------------------------------------------------------------
    def _on_update(self, update: Update) -> None:
        self.updates_received += 1
        for pfx in update.withdraw:
            self.adj_rib_in.pop(pfx.key, None)
            self.daemon._route_changed(pfx)
        for route in update.announce:
            if self.daemon.asn in route.as_path:
                continue  # AS-path loop
            imported = route.copy()
            if self.import_policy is not None:
                imported = self.import_policy(imported)
                if imported is None:
                    continue
            self.adj_rib_in[imported.prefix.key] = imported
            self.daemon._route_changed(imported.prefix)

    # ------------------------------------------------------------------
    # Advertisement with MRAI batching
    # ------------------------------------------------------------------
    def advertise(self, route: BGPRoute) -> None:
        exported = route.copy()
        if self.export_policy is not None:
            exported = self.export_policy(exported)
            if exported is None:
                self.withdraw(route.prefix)
                return
        if self.is_ebgp:
            exported.as_path = (self.daemon.asn,) + exported.as_path
            exported.nexthop = (
                self.local_addr
                if self.local_addr is not None
                else IPv4Address(self.daemon.router_id)
            )
            exported.local_pref = 100
        elif self.nexthop_self:
            exported.nexthop = IPv4Address(self.daemon.router_id)
        self._pending_withdraw.discard(exported.prefix.key)
        self._pending_announce[exported.prefix.key] = exported
        self._schedule_flush()

    def withdraw(self, pfx: Prefix) -> None:
        if pfx.key in self.advertised or pfx.key in self._pending_announce:
            self._pending_announce.pop(pfx.key, None)
            self._pending_withdraw.add(pfx.key)
            self._schedule_flush()

    def _schedule_flush(self) -> None:
        if self._mrai_timer is not None:
            return
        self._mrai_timer = self.sim.at(0.0, self._flush)

    def _flush(self) -> None:
        self._mrai_timer = None
        if self.state != ESTABLISHED:
            return
        if not self._pending_announce and not self._pending_withdraw:
            return
        announce = list(self._pending_announce.values())
        withdraw = [Prefix(k[0], k[1]) for k in self._pending_withdraw]
        for route in announce:
            self.advertised[route.prefix.key] = route
        for pfx in withdraw:
            self.advertised.pop(pfx.key, None)
        self._pending_announce.clear()
        self._pending_withdraw.clear()
        self.updates_sent += 1
        self.transport.send(Update(announce, withdraw))
        # MRAI: no further update to this peer until the interval ends.
        self._mrai_timer = self.sim.at(self.mrai, self._mrai_expired)

    def _mrai_expired(self) -> None:
        self._mrai_timer = None
        if self._pending_announce or self._pending_withdraw:
            self._schedule_flush()


# ----------------------------------------------------------------------
# Daemon
# ----------------------------------------------------------------------
class BGPDaemon:
    """One BGP speaker: sessions, Loc-RIB, decision process."""

    def __init__(
        self,
        sim: Simulator,
        asn: int,
        router_id: Union[int, str, IPv4Address],
        rib: Optional[RIB] = None,
        name: str = "",
        resolve_nexthops: bool = False,
    ):
        self.sim = sim
        self.asn = asn
        self.router_id = int(ip(router_id))
        self.rib = rib
        self.name = name or f"bgp-as{asn}-{IPv4Address(self.router_id)}"
        self.sessions: List[BGPSession] = []
        self.originated: Dict[Tuple[int, int], BGPRoute] = {}
        self.loc_rib: Dict[Tuple[int, int], Tuple[BGPRoute, Optional[BGPSession]]] = {}
        # Recursive next-hop resolution: before installing a BGP route,
        # look its next hop up in the IGP/connected portion of the RIB
        # and install the *resolved* (nexthop, ifname); unresolvable
        # routes stay out of the FIB. IGP changes trigger re-resolution.
        self.resolve_nexthops = resolve_nexthops
        self._reresolve_pending = False
        if resolve_nexthops and rib is not None:
            rib.on_change(self._igp_changed)
        sim.metrics.gauge(
            "bgp.loc_rib_routes", fn=lambda: float(len(self.loc_rib)), daemon=self.name
        )

    # ------------------------------------------------------------------
    def add_session(self, transport: DirectTransport, peer_asn: int, **kwargs) -> BGPSession:
        session = BGPSession(self, transport, peer_asn, **kwargs)
        self.sessions.append(session)
        return session

    def originate(
        self,
        pfx: Union[str, Prefix],
        local_pref: int = 100,
    ) -> None:
        """Announce a locally originated prefix."""
        route = BGPRoute(
            prefix(pfx),
            as_path=(),
            nexthop=IPv4Address(self.router_id),
            local_pref=local_pref,
            origin=ORIGIN_IGP,
        )
        self.originated[route.prefix.key] = route
        self._route_changed(route.prefix)

    def withdraw_origin(self, pfx: Union[str, Prefix]) -> None:
        pfx = prefix(pfx)
        if self.originated.pop(pfx.key, None) is not None:
            self._route_changed(pfx)

    # ------------------------------------------------------------------
    # Decision process
    # ------------------------------------------------------------------
    def _candidates(self, key: Tuple[int, int]) -> List[Tuple[BGPRoute, Optional[BGPSession]]]:
        result: List[Tuple[BGPRoute, Optional[BGPSession]]] = []
        if key in self.originated:
            result.append((self.originated[key], None))
        for session in self.sessions:
            route = session.adj_rib_in.get(key)
            if route is not None:
                result.append((route, session))
        return result

    def _prefer(self, item: Tuple[BGPRoute, Optional[BGPSession]]):
        # The standard steps, less MED: no route here carries one.
        route, session = item
        ebgp_rank = 0 if session is None else (1 if session.is_ebgp else 2)
        peer_id = session.peer_router_id if session is not None else 0
        return (
            -route.local_pref,
            len(route.as_path),
            route.origin,
            ebgp_rank,
            peer_id,
        )

    def _route_changed(self, pfx: Prefix) -> None:
        key = pfx.key
        candidates = self._candidates(key)
        old = self.loc_rib.get(key)
        new = min(candidates, key=self._prefer) if candidates else None
        if old is not None and new is not None and old[0] is new[0]:
            return
        if new is None:
            self.loc_rib.pop(key, None)
            if self.rib is not None:
                self.rib.withdraw(pfx, "bgp")
            for session in self.sessions:
                session.withdraw(pfx)
            return
        self.loc_rib[key] = new
        route, learned_from = new
        if self.rib is not None:
            if learned_from is not None:
                self._install(pfx, route, learned_from)
            else:
                # Locally originated best: the origin covers the prefix
                # itself (static/IGP), so drop any BGP-learned entry.
                self.rib.withdraw(pfx, "bgp")
        # Re-advertise to every session except the one we learned from;
        # iBGP routes are not reflected to other iBGP peers. A session
        # the new best is *not* advertisable to must see a withdraw
        # instead — otherwise a previously announced route (say a local
        # origination that just lost to an iBGP-learned path) would
        # linger in the peer's Adj-RIB-In forever.
        for session in self.sessions:
            if session is learned_from or (
                learned_from is not None
                and not learned_from.is_ebgp
                and not session.is_ebgp
            ):
                session.withdraw(pfx)
                continue
            session.advertise(route)

    # ------------------------------------------------------------------
    # RIB installation with optional recursive next-hop resolution
    # ------------------------------------------------------------------
    def _install(self, pfx: Prefix, route: BGPRoute, learned_from: BGPSession) -> None:
        distance = AdminDistance.EBGP if learned_from.is_ebgp else AdminDistance.IBGP
        if not self.resolve_nexthops:
            self.rib.update(
                RibRoute(pfx, route.nexthop, "bgp", "bgp", distance, len(route.as_path))
            )
            return
        resolved = self._resolve(route.nexthop)
        if resolved is None:
            self.rib.withdraw(pfx, "bgp")
            return
        nexthop, ifname = resolved
        self.rib.update(
            RibRoute(pfx, nexthop, ifname, "bgp", distance, len(route.as_path))
        )

    def _resolve(self, bgp_nexthop: IPv4Address) -> Optional[Tuple[IPv4Address, str]]:
        """Resolve a BGP next hop against the IGP/connected RIB entries
        (one recursion level, as XORP's rib does for BGP)."""
        found = self.rib.lookup(bgp_nexthop)
        if found is None or found.protocol == "bgp":
            return None
        if found.nexthop is None:
            # Directly connected subnet: forward straight to the BGP
            # next hop out of that interface.
            return bgp_nexthop, found.ifname
        return found.nexthop, found.ifname

    def _igp_changed(self, pfx: Prefix, best) -> None:
        # Ignore churn we caused ourselves; IGP/connected moves schedule
        # one debounced re-resolution pass.
        if best is not None and best.protocol == "bgp":
            return
        if self._reresolve_pending:
            return
        self._reresolve_pending = True
        self.sim.call_soon(self._reresolve)

    def _reresolve(self) -> None:
        self._reresolve_pending = False
        for key in sorted(self.loc_rib):
            route, learned_from = self.loc_rib[key]
            if learned_from is None:
                continue
            self._install(Prefix(key[0], key[1]), route, learned_from)

    # ------------------------------------------------------------------
    # Session lifecycle hooks
    # ------------------------------------------------------------------
    def _session_established(self, session: BGPSession) -> None:
        for key, (route, learned_from) in list(self.loc_rib.items()):
            if session is learned_from:
                continue
            if (
                learned_from is not None
                and not learned_from.is_ebgp
                and not session.is_ebgp
            ):
                continue
            session.advertise(route)

    def _session_down(self, session: BGPSession, learned: List[BGPRoute]) -> None:
        for route in learned:
            self._route_changed(route.prefix)

    def best(self, pfx: Union[str, Prefix]) -> Optional[BGPRoute]:
        found = self.loc_rib.get(prefix(pfx).key)
        return found[0] if found is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BGPDaemon {self.name} sessions={len(self.sessions)} routes={len(self.loc_rib)}>"
