"""Runtime invariant checking.

A controlled experiment is only trustworthy if the substrate stays sane
while events fire. The :class:`InvariantChecker` watches a deployment
for the ways a fault schedule can silently corrupt a run:

* **TTL monotonicity / loop sentinel** (continuous, per packet): every
  forwarding hop logs a ``fwd`` trace record — a quiet kind that costs
  one bit test until the checker enables it (the PR-1 trace fast path).
  A packet whose TTL fails to strictly decrease hop over hop, or that
  is forwarded more times than any TTL allows, is a violation.
* **Packet conservation** (per link and shaper, on demand): every
  packet offered to a link channel must be delivered, dropped (and
  counted), still queued, or still in flight; Click shapers must
  likewise account for every push. Link drop counters are cross-checked
  against the ``drop`` trace records naming the link, and each CPU
  scheduler's ready set against its processes' queues.
* **No forwarding loops** (structural, after convergence): following
  RIB next hops from every source toward every destination must never
  revisit a node. The same walk over kernel routing tables covers
  physical deployments.
* **RIB <-> FIB consistency** (after each convergence): every RIB
  winner must be installed in the FEA and the Click FIB with the same
  next hop and output port, and the FEA must hold nothing the RIB did
  not elect. Checked incrementally on every RIB change, and fully on
  demand.

Violations carry the fault/link/node event that most recently fired, so
a report reads "loop between a and b — after 'fail denver=kansascity'".
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: Forwarding observations per packet uid beyond which we declare a
#: loop: no IPv4 TTL admits more hops than this.
MAX_HOPS = 255

#: Forget per-packet TTL state once this many packets are in flight
#: (bounds checker memory on very long runs).
MAX_TRACKED_PACKETS = 65536


class Violation:
    """One invariant breach, with the event context that triggered it."""

    __slots__ = ("time", "invariant", "detail", "context")

    def __init__(self, time: float, invariant: str, detail: Dict[str, Any],
                 context: str):
        self.time = time
        self.invariant = invariant
        self.detail = detail
        self.context = context

    def __repr__(self) -> str:
        ctx = f" after [{self.context}]" if self.context else ""
        return f"<Violation t={self.time:.6f} {self.invariant} {self.detail}{ctx}>"


class InvariantChecker:
    """Watches an Experiment, VirtualNetwork, or VINI for invariant
    breaches while a fault schedule runs.

    Usage::

        checker = InvariantChecker(exp).install()
        exp.apply_faults(plan)
        vini.run(until=...)
        checker.check_now()       # structural sweep at convergence
        checker.assert_clean()

    ``install()`` enables the quiet per-hop trace kind and registers
    RIB listeners; until then the checker costs nothing. Structural
    sweeps run when asked (``check_now``), at a point the caller knows
    to be converged: transient OSPF micro-loops mid-convergence are
    real, and a sweep then would report them.
    """

    def __init__(self, target):
        self.network, self.vini = _split_target(target)
        if self.network is not None:
            self.sim = self.network.sim
        elif self.vini is not None:
            self.sim = self.vini.sim
        else:
            raise TypeError(
                f"cannot check {type(target).__name__}; expected an "
                "Experiment, VirtualNetwork, or VINI"
            )
        self.violations: List[Violation] = []
        self._context = ""
        self._ttl_seen: Dict[int, Tuple[int, int]] = {}  # uid -> (ttl, hops)
        self._installed = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self) -> "InvariantChecker":
        if self._installed:
            return self
        self._installed = True
        trace = self.sim.trace
        for kind in ("fault", "link_state", "vlink_state", "node_state"):
            trace.subscribe(kind, self._note_context)
        trace.enable("fwd", "drop")
        trace.subscribe("fwd", self._on_fwd)
        if self.network is not None:
            for vnode in self.network.nodes.values():
                vnode.xorp.rib.on_change(
                    lambda pfx, route, vn=vnode: self._on_rib_change(vn, pfx)
                )
        return self

    def _note_context(self, record) -> None:
        fields = " ".join(f"{k}={v}" for k, v in record.fields.items())
        self._context = f"{record.kind}@{record.time:.3f} {fields}"

    def _report(self, invariant: str, **detail: Any) -> None:
        violation = Violation(self.sim.now, invariant, detail, self._context)
        self.violations.append(violation)
        self.sim.trace.log(
            "invariant_violation", invariant=invariant, context=self._context,
            **detail,
        )

    # ------------------------------------------------------------------
    # Continuous per-packet checks (trace fast path)
    # ------------------------------------------------------------------
    def _on_fwd(self, record) -> None:
        fields = record.fields
        uid = fields["uid"]
        ttl = fields["ttl"]
        seen = self._ttl_seen.get(uid)
        if seen is None:
            if len(self._ttl_seen) >= MAX_TRACKED_PACKETS:
                self._ttl_seen.clear()
            self._ttl_seen[uid] = (ttl, 1)
            return
        last_ttl, hops = seen
        if ttl >= last_ttl:
            self._report(
                "ttl_monotonicity", uid=uid, node=fields["node"],
                ttl=ttl, previous=last_ttl,
            )
        hops += 1
        if hops == MAX_HOPS + 1:
            self._report(
                "forwarding_loop", uid=uid, node=fields["node"], hops=hops
            )
        self._ttl_seen[uid] = (ttl, hops)

    # ------------------------------------------------------------------
    # RIB <-> FIB consistency
    # ------------------------------------------------------------------
    def _on_rib_change(self, vnode, pfx) -> None:
        """Incremental check of one prefix after a RIB election."""
        best = vnode.xorp.rib.best(pfx)
        fea_entry = vnode.fea.routes.get(pfx.key)
        if best is None:
            if fea_entry is not None:
                self._report(
                    "rib_fib", node=vnode.name, prefix=str(pfx),
                    problem="fea_has_withdrawn_route",
                )
            return
        if fea_entry != (best.nexthop, best.ifname):
            self._report(
                "rib_fib", node=vnode.name, prefix=str(pfx),
                problem="fea_mismatch", rib=(best.nexthop, best.ifname),
                fea=fea_entry,
            )
            return
        self._check_fib_entry(vnode, pfx, best.nexthop, best.ifname)

    def _check_fib_entry(self, vnode, pfx, nexthop, ifname) -> None:
        from repro.core.virtual_network import (
            FIB_EGRESS,
            FIB_FORWARD,
            FIB_LOCAL,
        )

        entry = vnode.lookup._trie.get(pfx)
        if entry is None:
            self._report(
                "rib_fib", node=vnode.name, prefix=str(pfx),
                problem="missing_fib_entry", rib=(nexthop, ifname),
            )
            return
        gw, port = entry
        if ifname == "local":
            want_port, want_gw = FIB_LOCAL, None
        elif ifname == "egress":
            want_port, want_gw = FIB_EGRESS, None
        else:
            want_port, want_gw = FIB_FORWARD, nexthop
        if port != want_port or gw != want_gw:
            self._report(
                "rib_fib", node=vnode.name, prefix=str(pfx),
                problem="fib_mismatch", fib=(gw, port),
                expected=(want_gw, want_port),
            )

    def check_rib_fib(self) -> None:
        """Full sweep: every vnode's RIB winners vs FEA vs Click FIB."""
        if self.network is None:
            return
        for vnode in self.network.nodes.values():
            rib = vnode.xorp.rib
            winners = {route.prefix.key: route for route in rib.routes()}
            fea_routes = vnode.fea.routes
            for key, route in winners.items():
                entry = fea_routes.get(key)
                if entry != (route.nexthop, route.ifname):
                    self._report(
                        "rib_fib", node=vnode.name, prefix=str(route.prefix),
                        problem="fea_mismatch",
                        rib=(route.nexthop, route.ifname), fea=entry,
                    )
                    continue
                self._check_fib_entry(
                    vnode, route.prefix, route.nexthop, route.ifname
                )
            for key in fea_routes:
                if key not in winners:
                    self._report(
                        "rib_fib", node=vnode.name,
                        prefix=f"{key[0]:#010x}/{key[1]}",
                        problem="fea_route_without_rib_winner",
                    )

    # ------------------------------------------------------------------
    # Structural forwarding-loop checks
    # ------------------------------------------------------------------
    def check_forwarding_loops(self) -> None:
        """Follow next hops source -> destination; a revisited node is a
        loop. Blackholes (failed link, crashed node, no route) are not
        loops — a fault schedule legitimately creates them."""
        if self.network is not None:
            self._check_overlay_loops()
        if self.vini is not None:
            self._check_physical_loops()

    def _check_overlay_loops(self) -> None:
        nodes = self.network.nodes
        for dst in nodes.values():
            for src in nodes.values():
                if src is dst:
                    continue
                status, path = walk_overlay_path(self.network, src, dst)
                if status == "loop":
                    self._report(
                        "forwarding_loop", layer="overlay",
                        src=src.name, dst=dst.name, at=path[-1],
                    )

    def _check_physical_loops(self) -> None:
        nodes = self.vini.nodes
        for dst_name, dst in nodes.items():
            try:
                dst_addr = dst.address
            except RuntimeError:
                continue  # unconfigured node
            for src in nodes.values():
                if src is dst:
                    continue
                seen = set()
                current = src
                while True:
                    if current.name in seen:
                        self._report(
                            "forwarding_loop", layer="physical",
                            src=src.name, dst=dst_name, at=current.name,
                        )
                        break
                    seen.add(current.name)
                    if current.is_local(dst_addr):
                        break
                    found = current.routes.lookup_entry(dst_addr)
                    if found is None:
                        break
                    iface = found[1].interface
                    link = iface.link
                    if link is None or not link.up or not iface.up:
                        break
                    current = link.other_end(iface).node
                    if not getattr(current, "alive", True):
                        break

    # ------------------------------------------------------------------
    # Packet conservation
    # ------------------------------------------------------------------
    def check_conservation(self) -> None:
        """Every packet offered to a link or shaper is accounted for, and each
        queued process waits once on its CPU: in the ready set, or in the heap
        if plain, keyed by its vruntime and not owning a preempted slice."""
        links = []
        if self.vini is not None:
            links.extend(self.vini.links.values())
            nodes = list(self.vini.nodes.values())
        else:
            seen = set()
            nodes = list(dict.fromkeys(
                v.phys_node for v in self.network.nodes.values()))
            for node in nodes:
                for iface in node.interfaces.values():
                    link = iface.link
                    if link is not None and id(link) not in seen:
                        seen.add(id(link))
                        links.append(link)
        for node in nodes:
            cpu = node.cpu
            queued = {p for p in cpu.processes if p.queue}
            ready = cpu._ready.union(p for _, _, p in cpu._fair)
            misplaced = {p for v, i, p in cpu._fair if (v, i) != (p.vruntime, p.index)
                         or not p.plain or p is cpu._resume or p in cpu._ready}
            if ready != queued or misplaced:
                self._report("cpu_ready_set", node=node.name, differ=sorted(
                    p.name for p in ready ^ queued | misplaced))
        trace = self.sim.trace
        for link in links:
            offered = delivered = drops = backlog = flight = 0
            for channel in link._channels.values():
                offered += channel.offered
                delivered += channel.delivered
                drops += channel.drops
                backlog += len(channel._retire().queue)
                flight += len(channel.in_flight) - len(channel.queue)
            if offered != delivered + drops + backlog + flight:
                self._report(
                    "conservation", link=link.name, offered=offered,
                    delivered=delivered, drops=drops, queued=backlog,
                    in_flight=flight,
                )
            if trace.wants("drop"):
                traced = trace.count("drop", where=link.name)
                if traced != drops:
                    self._report(
                        "drop_accounting", link=link.name,
                        counter=drops, traced=traced,
                    )
        if self.network is not None:
            self._check_click_conservation()

    def _check_click_conservation(self) -> None:
        from repro.click.elements.queue import Shaper

        for vnode in self.network.nodes.values():
            for element in vnode.click.elements.values():
                if isinstance(element, Shaper):
                    queued = len(element._queue)
                    if element.offered != element.sent + element.drops + queued:
                        self._report(
                            "conservation", node=vnode.name,
                            element=element.name, offered=element.offered,
                            sent=element.sent, drops=element.drops,
                            queued=queued,
                        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def check_now(self) -> List[Violation]:
        """Run every structural check; returns violations found so far."""
        before = len(self.violations)
        self.check_forwarding_loops()
        self.check_conservation()
        self.check_rib_fib()
        return self.violations[before:]

    def assert_clean(self) -> None:
        if self.violations:
            lines = "\n".join(f"  {v!r}" for v in self.violations[:20])
            more = len(self.violations) - 20
            suffix = f"\n  ... and {more} more" if more > 0 else ""
            raise AssertionError(
                f"{len(self.violations)} invariant violation(s):\n{lines}{suffix}"
            )

    def report(self) -> Dict[str, int]:
        """Violation counts by invariant name (empty dict = clean)."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InvariantChecker violations={len(self.violations)}>"


def walk_overlay_path(network, src, dst, addr=None) -> Tuple[str, List[str]]:
    """Follow overlay RIB next hops from vnode ``src`` toward ``dst``.

    Returns ``(status, path)``: status is ``"delivered"`` (the walk
    reached ``dst``), ``"loop"`` (a node was revisited — it is the last
    path element), or ``"blackhole"`` (no route, a failed vlink, or a
    crashed node stopped the walk short). ``path`` is the sequence of
    node names visited, ending where the walk stopped. Shared by the
    invariant checker's structural sweep and the convergence tracker's
    blackhole/micro-loop windows.

    By default the walk targets ``dst``'s tap address; ``addr`` walks
    toward an arbitrary destination address instead (e.g. a host in a
    BGP-originated prefix), still counting as delivered on reaching
    ``dst`` — the node expected to own the prefix.
    """
    from repro.net.addr import ip

    dst_addr = dst.tap_addr if addr is None else ip(addr)
    seen = set()
    path: List[str] = []
    current = src
    while True:
        path.append(current.name)
        if current.name in seen:
            return "loop", path
        seen.add(current.name)
        if current is dst:
            return "delivered", path
        route = current.xorp.rib.lookup(dst_addr)
        if route is None or route.ifname in ("local", "egress"):
            return "blackhole", path
        vlink = current.vlinks.get(route.ifname)
        if vlink is None or vlink.failed:
            return "blackhole", path
        current = vlink.b if current is vlink.a else vlink.a
        if getattr(current, "crashed", False):
            path.append(current.name)
            return "blackhole", path


def _split_target(target):
    """Normalize a checker target to (VirtualNetwork | None, VINI | None)."""
    from repro.core.experiment import Experiment
    from repro.core.infrastructure import VINI
    from repro.core.virtual_network import VirtualNetwork

    if isinstance(target, Experiment):
        return target.network, target.vini
    if isinstance(target, VirtualNetwork):
        return target, None
    if isinstance(target, VINI):
        return None, target
    return None, None
