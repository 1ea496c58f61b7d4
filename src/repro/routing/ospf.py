"""OSPFv2 over point-to-point links.

This is the protocol at the center of the paper's Section 5.2
experiment: the Abilene mirror runs OSPF with the real topology's link
weights, a virtual link is failed, and the figures show detection
(dead-interval expiry), re-flooding, SPF recomputation, and the
transient paths of convergence.

Implemented machinery:

* neighbor discovery and liveness via Hellos (configurable hello/dead
  intervals — the paper's experiment uses 5 s / 10 s, footnote 3);
* a neighbor FSM (Down / Init / Exchange / Full) with database
  synchronization (DBDesc -> LSRequest -> LSUpdate);
* reliable flooding: LSAs are acknowledged and retransmitted until
  acked;
* router-LSAs carrying point-to-point adjacencies and stub prefixes,
  with sequence numbers and periodic refresh;
* Dijkstra SPF with the bidirectional-adjacency check, scheduled with a
  short hold-down so bursts of LSAs trigger one computation.

All virtual links in PL-VINI are point-to-point tunnels, so there is no
DR/BDR election or network-LSA machinery — same simplification the
IIAS configurations enjoy.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.net.addr import ALL_OSPF_ROUTERS, IPv4Address, Prefix, ip, prefix
from repro.net.packet import IPv4Header, OpaquePayload, Packet, PROTO_OSPF
from repro.routing.platform import RouterInterface, RoutingPlatform
from repro.routing.rib import AdminDistance, RIB, RibRoute
from repro.sim.timer import PeriodicTimer, Timeout

DEFAULT_HELLO_INTERVAL = 10.0
DEFAULT_DEAD_INTERVAL = 40.0
RXMT_INTERVAL = 5.0
LSA_REFRESH_INTERVAL = 1800.0
SPF_DELAY = 0.2

# Neighbor states
DOWN = "Down"
INIT = "Init"
EXCHANGE = "Exchange"
FULL = "Full"


class Hello:
    """OSPF Hello payload."""

    __slots__ = ("router_id", "hello_interval", "dead_interval", "neighbors")

    def __init__(self, router_id, hello_interval, dead_interval, neighbors):
        self.router_id = router_id
        self.hello_interval = hello_interval
        self.dead_interval = dead_interval
        self.neighbors = neighbors  # router ids seen on this interface

    @property
    def wire_size(self) -> int:
        return 44 + 4 * len(self.neighbors)


class RouterLSA:
    """Type-1 LSA: this router's adjacencies and stub prefixes."""

    __slots__ = ("adv_router", "seq", "links", "stubs")

    def __init__(
        self,
        adv_router: int,
        seq: int,
        links: List[Tuple[int, IPv4Address, int]],
        stubs: List[Tuple[Prefix, int]],
    ):
        self.adv_router = adv_router
        self.seq = seq
        # (neighbor router id, local interface address, cost)
        self.links = links
        # (prefix, cost)
        self.stubs = stubs

    @property
    def key(self) -> Tuple[int, int]:
        return (self.adv_router, self.seq)

    @property
    def wire_size(self) -> int:
        return 24 + 12 * (len(self.links) + len(self.stubs))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RouterLSA {_rid(self.adv_router)} seq={self.seq} links={len(self.links)}>"


class DBDesc:
    __slots__ = ("router_id", "headers")

    def __init__(self, router_id: int, headers: List[Tuple[int, int]]):
        self.router_id = router_id
        self.headers = headers

    @property
    def wire_size(self) -> int:
        return 32 + 20 * len(self.headers)


class LSRequest:
    __slots__ = ("router_id", "wanted")

    def __init__(self, router_id: int, wanted: List[int]):
        self.router_id = router_id
        self.wanted = wanted  # adv_router ids

    @property
    def wire_size(self) -> int:
        return 24 + 12 * len(self.wanted)


class LSUpdate:
    __slots__ = ("router_id", "lsas")

    def __init__(self, router_id: int, lsas: List[RouterLSA]):
        self.router_id = router_id
        self.lsas = lsas

    @property
    def wire_size(self) -> int:
        return 28 + sum(lsa.wire_size for lsa in self.lsas)


class LSAck:
    __slots__ = ("router_id", "headers")

    def __init__(self, router_id: int, headers: List[Tuple[int, int]]):
        self.router_id = router_id
        self.headers = headers

    @property
    def wire_size(self) -> int:
        return 24 + 20 * len(self.headers)


def _rid(router_id: int) -> str:
    return str(IPv4Address(router_id))


class Neighbor:
    """Adjacency state for one neighbor on one interface."""

    def __init__(self, daemon: "OSPFDaemon", iface: RouterInterface, router_id: int, addr: IPv4Address):
        self.daemon = daemon
        self.iface = iface
        self.router_id = router_id
        self.addr = addr
        self.state = DOWN
        self.dead_timer = Timeout(
            daemon.sim, daemon.dead_interval, self._on_dead
        )
        self.rxmt: Dict[int, RouterLSA] = {}  # adv_router -> LSA awaiting ack
        self.rxmt_timer = PeriodicTimer(
            daemon.sim, RXMT_INTERVAL, self._retransmit, start=False
        )
        self.pending_requests: Set[int] = set()
        self.sent_dbdesc = False

    def _on_dead(self) -> None:
        self.daemon._neighbor_down(self, reason="dead_interval")

    def _retransmit(self) -> None:
        if self.rxmt and self.state in (EXCHANGE, FULL):
            self.daemon._send(
                self.iface, LSUpdate(self.daemon.router_id, list(self.rxmt.values())),
                dst=self.addr,
            )

    def queue_flood(self, lsa: RouterLSA) -> None:
        self.rxmt[lsa.adv_router] = lsa
        if not self.rxmt_timer.running:
            self.rxmt_timer.start()

    def ack(self, headers: List[Tuple[int, int]]) -> None:
        for adv_router, seq in headers:
            held = self.rxmt.get(adv_router)
            if held is not None and held.seq <= seq:
                del self.rxmt[adv_router]
        if not self.rxmt:
            self.rxmt_timer.stop()


class OSPFDaemon:
    """One OSPF router instance."""

    def __init__(
        self,
        platform: RoutingPlatform,
        rib: RIB,
        router_id: Union[int, str, IPv4Address],
        hello_interval: float = DEFAULT_HELLO_INTERVAL,
        dead_interval: float = DEFAULT_DEAD_INTERVAL,
        stub_prefixes: Optional[List[Tuple[Union[str, Prefix], int]]] = None,
    ):
        self.platform = platform
        self.sim = platform.sim
        self.rib = rib
        self.router_id = int(ip(router_id))
        self.hello_interval = hello_interval
        self.dead_interval = dead_interval
        self.stub_prefixes: List[Tuple[Prefix, int]] = [
            (prefix(p), cost) for p, cost in (stub_prefixes or [])
        ]
        self.enabled_ifaces: Dict[str, RouterInterface] = {}
        self.neighbors: Dict[Tuple[str, int], Neighbor] = {}
        self.lsdb: Dict[int, RouterLSA] = {}
        self._seq = 0
        self._hello_timers: List[PeriodicTimer] = []
        self._refresh_timer: Optional[PeriodicTimer] = None
        self._spf_pending = False
        self._installed: Set[Tuple[int, int]] = set()
        self.spf_runs = 0
        self.started = False
        # Flight-recorder convergence tree (Fig 8): the open root span
        # of the current convergence episode, and the open SPF hold-down
        # wait span. Both None while the recorder is off or quiescent.
        self._conv_root = None
        self._spf_span = None
        metrics = self.sim.metrics
        rid = _rid(self.router_id)
        # Installs of changed LSAs learned from neighbors.
        self._lsa_installed = metrics.counter("ospf.lsa_installed", router=rid)
        metrics.counter("ospf.spf_runs", fn=lambda: self.spf_runs, router=rid)
        platform.register_receiver(self._receive)

    # ------------------------------------------------------------------
    # Configuration and lifecycle
    # ------------------------------------------------------------------
    def enable_interface(self, name: str) -> None:
        self.enabled_ifaces[name] = self.platform.interfaces[name]

    def enable_all_interfaces(self) -> None:
        for name in self.platform.interfaces:
            self.enable_interface(name)

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        if not self.enabled_ifaces:
            self.enable_all_interfaces()
        for iface in self.enabled_ifaces.values():
            timer = PeriodicTimer(
                self.sim,
                self.hello_interval,
                lambda iface=iface: self._send_hello(iface),
                jitter=0.1,
                rng_stream=f"ospf.hello.{self.platform.name}",
            )
            self._hello_timers.append(timer)
            # First hello goes out immediately.
            self.sim.call_soon(self._send_hello, iface)
        self._refresh_timer = PeriodicTimer(
            self.sim, LSA_REFRESH_INTERVAL, self._originate, jitter=0.1
        )
        self._originate()

    def stop(self) -> None:
        self.started = False
        for timer in self._hello_timers:
            timer.stop()
        self._hello_timers.clear()
        if self._refresh_timer is not None:
            self._refresh_timer.stop()
        for neighbor in list(self.neighbors.values()):
            neighbor.dead_timer.cancel()
            neighbor.rxmt_timer.stop()
        self.neighbors.clear()

    # ------------------------------------------------------------------
    # VINI upcall entry points (Section 6.1: exposing topology changes)
    # ------------------------------------------------------------------
    def interface_down(self, name: str) -> None:
        """Immediate notification that an interface's link failed."""
        for key, neighbor in list(self.neighbors.items()):
            if key[0] == name:
                self._neighbor_down(neighbor, reason="upcall")

    def interface_up(self, name: str) -> None:
        """Link recovered: hasten discovery with an immediate hello."""
        iface = self.enabled_ifaces.get(name)
        if iface is not None:
            self._send_hello(iface)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _send(self, iface: RouterInterface, message, dst: Optional[IPv4Address] = None) -> None:
        packet = Packet(
            IPv4Header(
                iface.address,
                dst if dst is not None else ALL_OSPF_ROUTERS,
                PROTO_OSPF,
                ttl=1,
            ),
            payload=OpaquePayload(message.wire_size, data=message, tag="ospf"),
        )
        self.platform.send(iface, packet)

    def _send_hello(self, iface: RouterInterface) -> None:
        seen = [
            n.router_id
            for (ifname, _rid_), n in self.neighbors.items()
            if ifname == iface.name
        ]
        self._send(
            iface,
            Hello(self.router_id, self.hello_interval, self.dead_interval, seen),
        )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _receive(self, iface: RouterInterface, packet: Packet) -> None:
        if packet.ip is None or packet.ip.proto != PROTO_OSPF:
            return
        if iface.name not in self.enabled_ifaces:
            return
        message = packet.payload.data
        src = packet.ip.src
        if isinstance(message, Hello):
            self._on_hello(iface, src, message)
        elif isinstance(message, DBDesc):
            self._on_dbdesc(iface, src, message)
        elif isinstance(message, LSRequest):
            self._on_lsrequest(iface, src, message)
        elif isinstance(message, LSUpdate):
            self._on_lsupdate(iface, src, message)
        elif isinstance(message, LSAck):
            self._on_lsack(iface, src, message)

    def _neighbor_for(self, iface: RouterInterface, router_id: int) -> Optional[Neighbor]:
        return self.neighbors.get((iface.name, router_id))

    def _on_hello(self, iface: RouterInterface, src: IPv4Address, hello: Hello) -> None:
        if (
            hello.hello_interval != self.hello_interval
            or hello.dead_interval != self.dead_interval
        ):
            return  # parameter mismatch: no adjacency (as per RFC 2328)
        neighbor = self._neighbor_for(iface, hello.router_id)
        if neighbor is None:
            neighbor = Neighbor(self, iface, hello.router_id, src)
            neighbor.state = INIT
            self.neighbors[(iface.name, hello.router_id)] = neighbor
            self.sim.trace.log(
                "ospf_neighbor",
                router=_rid(self.router_id),
                neighbor=_rid(hello.router_id),
                state=INIT,
            )
            # Reply at once so the peer learns of us within one hello.
            self._send_hello(iface)
        neighbor.dead_timer.restart(self.dead_interval)
        if self.router_id in hello.neighbors and neighbor.state == INIT:
            self._two_way(neighbor)

    def _two_way(self, neighbor: Neighbor) -> None:
        neighbor.state = EXCHANGE
        self.sim.trace.log(
            "ospf_neighbor",
            router=_rid(self.router_id),
            neighbor=_rid(neighbor.router_id),
            state=EXCHANGE,
        )
        neighbor.sent_dbdesc = True
        headers = [lsa.key for lsa in self.lsdb.values()]
        self._send(neighbor.iface, DBDesc(self.router_id, headers), dst=neighbor.addr)

    def _on_dbdesc(self, iface: RouterInterface, src: IPv4Address, dbd: DBDesc) -> None:
        neighbor = self._neighbor_for(iface, dbd.router_id)
        if neighbor is None or neighbor.state == DOWN:
            return
        if neighbor.state == INIT:
            self._two_way(neighbor)
        if not neighbor.sent_dbdesc:
            neighbor.sent_dbdesc = True
            headers = [lsa.key for lsa in self.lsdb.values()]
            self._send(iface, DBDesc(self.router_id, headers), dst=src)
        wanted = []
        for adv_router, seq in dbd.headers:
            ours = self.lsdb.get(adv_router)
            if ours is None or ours.seq < seq:
                wanted.append(adv_router)
        if wanted:
            neighbor.pending_requests = set(wanted)
            self._send(iface, LSRequest(self.router_id, wanted), dst=src)
        else:
            self._become_full(neighbor)

    def _become_full(self, neighbor: Neighbor) -> None:
        if neighbor.state == FULL:
            return
        neighbor.state = FULL
        self.sim.trace.log(
            "ospf_neighbor",
            router=_rid(self.router_id),
            neighbor=_rid(neighbor.router_id),
            state=FULL,
        )
        self._originate()
        self._schedule_spf()

    def _on_lsrequest(self, iface: RouterInterface, src: IPv4Address, req: LSRequest) -> None:
        neighbor = self._neighbor_for(iface, req.router_id)
        if neighbor is None:
            return
        lsas = [self.lsdb[r] for r in req.wanted if r in self.lsdb]
        if lsas:
            self._send(iface, LSUpdate(self.router_id, lsas), dst=src)

    def _on_lsupdate(self, iface: RouterInterface, src: IPv4Address, update: LSUpdate) -> None:
        neighbor = self._neighbor_for(iface, update.router_id)
        if neighbor is None or neighbor.state == DOWN:
            return
        acks = []
        changed = False
        for lsa in update.lsas:
            acks.append(lsa.key)
            ours = self.lsdb.get(lsa.adv_router)
            if ours is not None and ours.seq >= lsa.seq:
                continue
            self.lsdb[lsa.adv_router] = lsa
            self._lsa_installed.inc()
            changed = True
            self._flood(lsa, exclude=neighbor)
            neighbor.pending_requests.discard(lsa.adv_router)
        if acks:
            self._send(iface, LSAck(self.router_id, acks), dst=src)
        if neighbor.state == EXCHANGE and not neighbor.pending_requests:
            self._become_full(neighbor)
        if changed:
            fr = self.sim.flight
            if fr.enabled:
                fr.instant(
                    "ospf.lsa_receive",
                    node=_rid(self.router_id),
                    parent=self._convergence_root(fr),
                    origin=_rid(update.router_id),
                )
            self._schedule_spf()

    def _on_lsack(self, iface: RouterInterface, src: IPv4Address, ack: LSAck) -> None:
        neighbor = self._neighbor_for(iface, ack.router_id)
        if neighbor is not None:
            neighbor.ack(ack.headers)

    # ------------------------------------------------------------------
    # Neighbor loss
    # ------------------------------------------------------------------
    def _neighbor_down(self, neighbor: Neighbor, reason: str) -> None:
        key = (neighbor.iface.name, neighbor.router_id)
        if self.neighbors.get(key) is not neighbor:
            return
        del self.neighbors[key]
        neighbor.state = DOWN
        neighbor.dead_timer.cancel()
        neighbor.rxmt_timer.stop()
        self.sim.trace.log(
            "ospf_neighbor",
            router=_rid(self.router_id),
            neighbor=_rid(neighbor.router_id),
            state=DOWN,
            reason=reason,
        )
        fr = self.sim.flight
        if fr.enabled:
            fr.instant(
                "ospf.neighbor_down",
                node=_rid(self.router_id),
                parent=self._convergence_root(fr),
                neighbor=_rid(neighbor.router_id),
                reason=reason,
            )
        self._originate()
        self._schedule_spf()

    # ------------------------------------------------------------------
    # LSA origination and flooding
    # ------------------------------------------------------------------
    def _originate(self) -> None:
        if not self.started:
            return
        self._seq += 1
        links = [
            (n.router_id, n.iface.address, n.iface.cost)
            for n in self.neighbors.values()
            if n.state == FULL
        ]
        stubs = [(iface.prefix, iface.cost) for iface in self.enabled_ifaces.values()]
        stubs.extend(self.stub_prefixes)
        lsa = RouterLSA(self.router_id, self._seq, links, stubs)
        self.lsdb[self.router_id] = lsa
        self._flood(lsa, exclude=None)
        self._schedule_spf()

    def _flood(self, lsa: RouterLSA, exclude: Optional[Neighbor]) -> None:
        for neighbor in self.neighbors.values():
            if neighbor is exclude or neighbor.state not in (EXCHANGE, FULL):
                continue
            neighbor.queue_flood(lsa)
            self._send(
                neighbor.iface, LSUpdate(self.router_id, [lsa]), dst=neighbor.addr
            )

    # ------------------------------------------------------------------
    # SPF
    # ------------------------------------------------------------------
    def _convergence_root(self, fr) -> "Span":  # noqa: F821
        """The open root span of the current convergence episode.

        A convergence episode starts at the first trigger (neighbor
        loss or a changed LSA) and ends when an SPF run changes the
        installed routes; everything in between parents under one root
        so Perfetto shows the Fig-8 chain as a single tree.
        """
        root = self._conv_root
        if root is None or root.end is not None:
            root = fr.span_begin(
                "ospf.convergence", node=_rid(self.router_id)
            )
            self._conv_root = root
        return root

    def _schedule_spf(self) -> None:
        if self._spf_pending:
            return
        self._spf_pending = True
        fr = self.sim.flight
        if fr.enabled:
            # The hold-down wait between trigger and recompute — the
            # dominant term in the paper's convergence budget.
            fr.span_end(self._spf_span)
            self._spf_span = fr.span_begin(
                "ospf.spf_wait",
                node=_rid(self.router_id),
                parent=self._convergence_root(fr),
                delay=SPF_DELAY,
            )
        self.sim.at(SPF_DELAY, self._run_spf)

    def _run_spf(self) -> None:
        self._spf_pending = False
        self.spf_runs += 1
        routes_changed = self._spf_full()
        fr = self.sim.flight
        if fr.enabled:
            rid = _rid(self.router_id)
            if self._spf_span is not None:
                fr.span_end(self._spf_span)
                self._spf_span = None
            root = self._convergence_root(fr)
            fr.instant(
                "ospf.spf_recompute", node=rid, parent=root,
                routes=len(self._installed),
            )
            if routes_changed:
                fib_span = fr.instant(
                    "ospf.fib_update", node=rid, parent=root,
                    installed=len(self._installed),
                )
                # Link the next data packet this node forwards to the
                # update that rerouted it (Fig 8's last stage).
                fr.mark_reroute(self.platform.name, fib_span)
                fr.span_end(root)
                self._conv_root = None
        self.sim.trace.log(
            "ospf_spf", router=_rid(self.router_id), routes=len(self._installed)
        )

    def _own_prefixes(self) -> Set[Tuple[int, int]]:
        own = {iface.prefix.key for iface in self.enabled_ifaces.values()}
        own.update(p.key for p, _c in self.stub_prefixes)
        return own

    def _spf_full(self) -> bool:
        """Full Dijkstra + full route election on every LSDB change, as
        stock XORP does; returns whether the installed set changed."""
        dist, first_hop = self._dijkstra()
        # Collect best route per stub prefix across all routers.
        best: Dict[Tuple[int, int], Tuple[float, int]] = {}
        for router, lsa in self.lsdb.items():
            if router == self.router_id or router not in dist:
                continue
            for stub, cost in lsa.stubs:
                total = dist[router] + cost
                key = stub.key
                if key not in best or total < best[key][0] or (
                    total == best[key][0] and router < best[key][1]
                ):
                    best[key] = (total, router)
        new_installed: Set[Tuple[int, int]] = set()
        own_prefixes = self._own_prefixes()
        for key, (metric, router) in best.items():
            if key in own_prefixes:
                continue  # connected beats OSPF anyway; do not churn
            nexthop_addr, ifname = first_hop[router]
            pfx = Prefix(key[0], key[1])
            self.rib.update(
                RibRoute(
                    pfx,
                    nexthop_addr,
                    ifname,
                    "ospf",
                    AdminDistance.OSPF,
                    metric,
                )
            )
            new_installed.add(key)
        routes_changed = new_installed != self._installed
        for stale in self._installed - new_installed:
            self.rib.withdraw(Prefix(stale[0], stale[1]), "ospf")
        self._installed = new_installed
        return routes_changed

    def _dijkstra(
        self,
    ) -> Tuple[Dict[int, float], Dict[int, Tuple[IPv4Address, str]]]:
        """Shortest paths over the LSDB with bidirectional checking.

        Returns (distance by router id, first hop by router id) where
        first hop is (neighbor interface address, our interface name).
        An edge out of the root is valid only when it maps onto an
        enabled local interface.
        """
        dist: Dict[int, float] = {self.router_id: 0.0}
        first_hop: Dict[int, Tuple[IPv4Address, str]] = {}
        visited: Set[int] = set()
        heap: List[Tuple[float, int]] = [(0.0, self.router_id)]
        while heap:
            d, router = heapq.heappop(heap)
            if router in visited:
                continue
            visited.add(router)
            lsa = self.lsdb.get(router)
            if lsa is None:
                continue
            for neighbor_id, _local_addr, cost in lsa.links:
                peer_lsa = self.lsdb.get(neighbor_id)
                if peer_lsa is None:
                    continue
                # Bidirectional check: the peer must list a link back.
                back = next(
                    (l for l in peer_lsa.links if l[0] == router), None
                )
                if back is None:
                    continue
                # First hop: inherit, or establish for direct neighbors.
                if router == self.router_id:
                    # The peer's interface address toward us is the
                    # link-data of its reverse link entry.
                    nexthop_addr = back[1]
                    iface = self.platform.interface_for(nexthop_addr)
                    if iface is None or iface.name not in self.enabled_ifaces:
                        continue
                    hop = (nexthop_addr, iface.name)
                else:
                    hop = first_hop[router]
                nd = d + cost
                if neighbor_id in dist and nd >= dist[neighbor_id]:
                    continue
                dist[neighbor_id] = nd
                first_hop[neighbor_id] = hop
                heapq.heappush(heap, (nd, neighbor_id))
        return dist, first_hop

    # ------------------------------------------------------------------
    def neighbor_states(self) -> Dict[str, str]:
        return {
            _rid(n.router_id): n.state for n in self.neighbors.values()
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OSPFDaemon {_rid(self.router_id)} neighbors={len(self.neighbors)}>"
