"""Internet-in-a-slice: a multi-AS topology zoo.

Section 2.1 of the paper argues VINI must support experiments at the
scale and structure of the real interdomain system — many ASes with
transit/customer and peer relationships, each an IGP domain of its own,
stitched together by eBGP with realistic (Gao-Rexford) policy. This
module generates such internets and embeds them in a slice:

* :func:`generate_internet_spec` — pure data: a tiered AS graph
  (tier-1 clique, mid-tier transit ASes, stub edge ASes) with
  configurable degree distributions, per-AS router topologies, border
  placement, and prefix origination, drawn entirely from named seeded
  RNG streams so the same seed replays the identical internet.
* :func:`build_internet` — embeds a spec as one VINI experiment: one
  physical node per AS, per-AS OSPF areas (intra-AS interfaces only),
  iBGP full mesh with next-hop-self, eBGP sessions with Gao-Rexford
  import/export attached, and each AS originating its prefix at an
  anchor router.
* :func:`build_policy_graph` — the AS-level-only instantiation (one
  BGP speaker per AS, no data plane) the Hypothesis property tests use
  to define policy correctness cheaply.
* :func:`hijack_plan` / :func:`stuck_route_plan` — scenario families
  as :class:`~repro.faults.FaultPlan`s: a prefix hijack (a bogus
  origination at another AS's anchor) and a stuck route (silently
  black-holed eBGP transport + failed data path, so stale routes
  persist until hold timers expire).
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.experiment import Experiment
from repro.core.infrastructure import VINI
from repro.faults.plan import FaultPlan
from repro.net.addr import Prefix, prefix
from repro.routing.bgp import BGPDaemon, DirectTransport
from repro.routing.policy import (
    CUSTOMER,
    ORIGIN_LOCAL_PREF,
    PEER,
    PROVIDER,
    GaoRexfordPolicy,
)
from repro.routing.rib import AdminDistance, RibRoute
from repro.sim.engine import Simulator

TIER1 = "tier1"
TIER2 = "tier2"
STUB = "stub"

#: a is the provider of b on a "transit" edge.
TRANSIT = "transit"

#: Shares of the ASes that are tier-1 and mid-tier (the rest are stubs).
TIER1_FRAC = 0.02
TIER2_FRAC = 0.15
#: Chance that two mid-tier ASes peer.
TIER2_PEER_PROB = 0.12


class ASSpec:
    """One autonomous system: tier, routers, anchor, originated prefix."""

    __slots__ = ("asn", "tier", "routers", "intra_edges")

    def __init__(self, asn: int, tier: str, routers: List[str],
                 intra_edges: List[Tuple[str, str, int]]):
        self.asn = asn
        self.tier = tier
        self.routers = routers
        # (router_a, router_b, cost) — the AS's internal topology.
        self.intra_edges = intra_edges

    @property
    def name(self) -> str:
        return f"as{self.asn}"

    @property
    def anchor(self) -> str:
        """The router that originates the AS prefix."""
        return self.routers[0]

    @property
    def prefix(self) -> Prefix:
        return prefix(f"99.{self.asn}.0.0/16")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ASSpec as{self.asn} {self.tier} routers={len(self.routers)}>"


class InterASEdge:
    """One AS-level adjacency, pinned to a border router on each side."""

    __slots__ = ("a_asn", "a_router", "b_asn", "b_router", "rel")

    def __init__(self, a_asn: int, a_router: str, b_asn: int, b_router: str,
                 rel: str):
        self.a_asn = a_asn
        self.a_router = a_router
        self.b_asn = b_asn
        self.b_router = b_router
        self.rel = rel  # TRANSIT (a provides transit to b) or PEER

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<InterASEdge as{self.a_asn}:{self.a_router} "
            f"{self.rel} as{self.b_asn}:{self.b_router}>"
        )


class InternetSpec:
    """A generated internet, as replayable pure data."""

    def __init__(self, name: str, ases: List[ASSpec],
                 inter_edges: List[InterASEdge]):
        self.name = name
        self.ases = ases
        self.inter_edges = inter_edges
        self.by_asn: Dict[int, ASSpec] = {a.asn: a for a in ases}
        # (observer_asn, other_asn) -> other's relationship to observer.
        self._rels: Dict[Tuple[int, int], str] = {}
        for edge in inter_edges:
            if edge.rel == TRANSIT:
                self._rels[(edge.a_asn, edge.b_asn)] = CUSTOMER
                self._rels[(edge.b_asn, edge.a_asn)] = PROVIDER
            else:
                self._rels[(edge.a_asn, edge.b_asn)] = PEER
                self._rels[(edge.b_asn, edge.a_asn)] = PEER

    @property
    def n_routers(self) -> int:
        return sum(len(a.routers) for a in self.ases)

    def rel_of(self, a: int, b: int) -> Optional[str]:
        """AS ``b``'s relationship to AS ``a`` (None: not adjacent)."""
        return self._rels.get((a, b))

    def signature(self) -> Dict:
        """A stable structural digest for determinism assertions."""
        return {
            "name": self.name,
            "ases": [
                [a.asn, a.tier, list(a.routers), sorted(a.intra_edges)]
                for a in self.ases
            ],
            "edges": sorted(
                [e.a_asn, e.a_router, e.rel, e.b_asn, e.b_router]
                for e in self.inter_edges
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<InternetSpec {self.name} ases={len(self.ases)} "
            f"routers={self.n_routers} edges={len(self.inter_edges)}>"
        )


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate_internet_spec(
    n_as: int,
    rng_streams: Callable,
    name: str = "internet",
    tier1_routers: Tuple[int, int] = (16, 32),
    tier2_routers: Tuple[int, int] = (4, 12),
    stub_routers: Tuple[int, int] = (2, 5),
    tier2_providers: Tuple[int, int] = (1, 2),
    stub_providers: Tuple[int, int] = (1, 2),
) -> InternetSpec:
    """Generate a tiered AS internet from named seeded RNG streams.

    ``rng_streams`` is a name -> ``random.Random`` factory (a
    Simulator's :meth:`~repro.sim.engine.Simulator.rng` or a bare
    :class:`~repro.sim.rand.RandomStreams`'s ``stream``), so two worlds
    built from the same master seed get the identical internet and the
    draws cannot collide with any other consumer's stream.

    Structure: the first ASes form a tier-1 clique (mutual peers),
    mid-tier ASes buy transit from tier-1s (and sometimes peer with
    each other), stubs buy transit from mid-tier (or tier-1) ASes.
    Router counts per tier and provider counts are the degree knobs.
    At the defaults, 200 ASes yield roughly a thousand routers.
    """
    if n_as < 2:
        raise ValueError(f"need at least 2 ASes, got {n_as}")
    graph_rng = rng_streams(f"topo.{name}.graph")
    intra_rng = rng_streams(f"topo.{name}.intra")
    border_rng = rng_streams(f"topo.{name}.borders")

    n_t1 = max(1, round(n_as * TIER1_FRAC))
    n_t2 = min(max(1, round(n_as * TIER2_FRAC)), max(n_as - n_t1 - 1, 0))
    tiers = ([TIER1] * n_t1 + [TIER2] * n_t2
             + [STUB] * (n_as - n_t1 - n_t2))
    router_ranges = {TIER1: tier1_routers, TIER2: tier2_routers,
                     STUB: stub_routers}

    ases: List[ASSpec] = []
    for index, tier in enumerate(tiers):
        asn = index + 1
        count = intra_rng.randint(*router_ranges[tier])
        routers = [f"as{asn}r{j}" for j in range(count)]
        edges: List[Tuple[str, str, int]] = []
        if count == 2:
            edges.append((routers[0], routers[1], intra_rng.randint(1, 10)))
        elif count > 2:
            # A ring plus random chords (biconnected-ish, so single
            # failures rarely partition an AS).
            for j in range(count):
                edges.append((routers[j], routers[(j + 1) % count],
                              intra_rng.randint(1, 10)))
            present = {(min(a, b), max(a, b)) for a, b, _c in edges}
            for _ in range(count // 3):
                a, b = intra_rng.sample(routers, 2)
                key = (min(a, b), max(a, b))
                if key not in present:
                    present.add(key)
                    edges.append((a, b, intra_rng.randint(1, 10)))
        ases.append(ASSpec(asn, tier, routers, edges))

    t1_asns = [a.asn for a in ases if a.tier == TIER1]
    t2_asns = [a.asn for a in ases if a.tier == TIER2]
    as_edges: List[Tuple[int, int, str]] = []
    connected = set()

    def add_edge(a: int, b: int, rel: str) -> None:
        key = (min(a, b), max(a, b))
        if key not in connected:
            connected.add(key)
            as_edges.append((a, b, rel))

    # Tier-1 clique: mutual peers, the default-free zone.
    for i, a in enumerate(t1_asns):
        for b in t1_asns[i + 1:]:
            add_edge(a, b, PEER)
    # Mid-tier: transit from tier-1 providers.
    for asn in t2_asns:
        k = min(graph_rng.randint(*tier2_providers), len(t1_asns))
        for provider in graph_rng.sample(t1_asns, k):
            add_edge(provider, asn, TRANSIT)
    # Mid-tier lateral peerings.
    for i, a in enumerate(t2_asns):
        for b in t2_asns[i + 1:]:
            if graph_rng.random() < TIER2_PEER_PROB:
                add_edge(a, b, PEER)
    # Stubs: transit from mid-tier (tier-1 when there is no mid-tier).
    provider_pool = t2_asns if t2_asns else t1_asns
    for a in ases:
        if a.tier != STUB:
            continue
        k = min(graph_rng.randint(*stub_providers), len(provider_pool))
        for provider in graph_rng.sample(provider_pool, k):
            add_edge(provider, a.asn, TRANSIT)

    by_asn = {a.asn: a for a in ases}
    inter_edges = [
        InterASEdge(
            a, border_rng.choice(by_asn[a].routers),
            b, border_rng.choice(by_asn[b].routers),
            rel,
        )
        for a, b, rel in as_edges
    ]
    return InternetSpec(name, ases, inter_edges)


# ----------------------------------------------------------------------
# Full embedding
# ----------------------------------------------------------------------
class InternetWorld:
    """A built internet: sim + substrate + experiment + wiring handles."""

    def __init__(self, sim: Simulator, vini: VINI, experiment: Experiment,
                 spec: InternetSpec):
        self.sim = sim
        self.vini = vini
        self.experiment = experiment
        self.spec = spec
        self.policies: Dict[str, GaoRexfordPolicy] = {}
        # (min asn, max asn) -> the eBGP DirectTransport pair.
        self.ebgp_transports: Dict[
            Tuple[int, int], Tuple[DirectTransport, DirectTransport]
        ] = {}
        # (min asn, max asn) -> the two BGPSession endpoints.
        self.ebgp_sessions: Dict[Tuple[int, int], Tuple[object, object]] = {}

    @property
    def network(self):
        return self.experiment.network

    def node(self, router: str):
        return self.network.nodes[router]

    def anchor(self, asn: int):
        return self.node(self.spec.by_asn[asn].anchor)

    def run(self, until: Optional[float] = None) -> float:
        return self.experiment.run(until=until)

    # ------------------------------------------------------------------
    def router_converged(self, router: str) -> bool:
        """Does this router hold a route for every AS prefix?"""
        rib = self.node(router).xorp.rib
        return all(rib.best(a.prefix) is not None for a in self.spec.ases)

    def converged_routers(self) -> int:
        return sum(
            1
            for a in self.spec.ases
            for r in a.routers
            if self.router_converged(r)
        )

    def best_as_path(self, router: str, asn: int) -> Optional[Tuple[int, ...]]:
        """The AS path ``router`` uses toward AS ``asn``'s prefix,
        including the listener's own AS (empty path: local prefix)."""
        daemon = self.node(router).xorp.bgp
        best = daemon.best(self.spec.by_asn[asn].prefix)
        if best is None:
            return None
        return (daemon.asn,) + tuple(best.as_path)

    def fib_checksum(self) -> int:
        """Order-independent digest over every router's FIB (cheap
        cross-config comparisons in the benches). crc32-based, so it is
        stable across interpreter invocations, unlike ``hash()``."""
        total = 0
        for a in self.spec.ases:
            for r in a.routers:
                for key, (nexthop, ifname) in \
                        self.node(r).fea.routes.items():
                    row = f"{r}|{key}|{int(nexthop or 0)}|{ifname}"
                    total ^= zlib.crc32(row.encode())
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<InternetWorld {self.spec.name} ases={len(self.spec.ases)} "
            f"routers={self.spec.n_routers}>"
        )


def build_internet(
    n_as: int = 200,
    seed: int = 0,
    name: str = "internet",
    hello_interval: float = 2.0,
    dead_interval: float = 8.0,
    mrai: float = 1.0,
    hold_time: float = 90.0,
    spec: Optional[InternetSpec] = None,
    **spec_kwargs,
) -> InternetWorld:
    """Build and wire a full internet (one experiment on one VINI).

    One physical node per AS carries that AS's virtual routers (the
    intra-AS tunnels deliver locally); physical links mirror the AS
    adjacencies. Every router runs OSPF on its intra-AS interfaces
    only, plus a BGP speaker: iBGP full mesh inside the AS with
    next-hop-self, eBGP at the borders with Gao-Rexford import/export,
    and recursive next-hop resolution against the IGP. The anchor
    router originates the AS prefix (with the origin LOCAL_PREF so
    borders export it everywhere) and holds a static route for it.
    Call ``.run(until=...)`` to converge.
    """
    sim = Simulator(seed=seed)
    if spec is None:
        spec = generate_internet_spec(n_as, sim.rng, name=name, **spec_kwargs)

    vini = VINI(sim=sim, backbone_block="198.32.0.0/16")
    for a in spec.ases:
        vini.add_node(a.name)
    for edge in spec.inter_edges:
        vini.connect(spec.by_asn[edge.a_asn].name,
                     spec.by_asn[edge.b_asn].name, delay=0.002)
    vini.install_underlay_routes()

    # The default /16 tap block caps out at 256 routers; a /12 holds
    # 4096 (and stays inside the 10/8 overlay route, clear of the
    # 10.254/16 link block).
    exp = Experiment(vini, name, tap_block="10.16.0.0/12")
    world = InternetWorld(sim, vini, exp, spec)

    for a in spec.ases:
        for router in a.routers:
            exp.add_node(router, a.name)
    intra_ifaces: Dict[str, List[str]] = {}
    for a in spec.ases:
        for ra, rb, cost in a.intra_edges:
            exp.connect(ra, rb, cost=cost)
            intra_ifaces.setdefault(ra, []).append(f"to_{rb}")
            intra_ifaces.setdefault(rb, []).append(f"to_{ra}")
    for edge in spec.inter_edges:
        exp.connect(edge.a_router, edge.b_router)

    # Control planes. OSPF is enabled on intra-AS interfaces only, so
    # each AS is its own IGP area and inter-AS /30s never leak into it.
    for a in spec.ases:
        for router in a.routers:
            vnode = world.node(router)
            vnode.configure_ospf(
                hello_interval=hello_interval,
                dead_interval=dead_interval,
            )
            for ifname in intra_ifaces.get(router, ()):
                vnode.xorp.ospf.enable_interface(ifname)
            daemon = vnode.xorp.configure_bgp(
                a.asn, vnode.tap_addr, resolve_nexthops=True
            )
            world.policies[router] = GaoRexfordPolicy(daemon)
        # iBGP full mesh with next-hop-self; next hops are tap /32s the
        # IGP carries, so every router can resolve them.
        for i, r1 in enumerate(a.routers):
            for r2 in a.routers[i + 1:]:
                t1, t2 = DirectTransport.pair(sim, delay=0.005)
                world.node(r1).xorp.bgp.add_session(
                    t1, a.asn, name=f"ibgp:{r2}", nexthop_self=True,
                    mrai=mrai, hold_time=hold_time,
                )
                world.node(r2).xorp.bgp.add_session(
                    t2, a.asn, name=f"ibgp:{r1}", nexthop_self=True,
                    mrai=mrai, hold_time=hold_time,
                )
        # Prefix origination at the anchor: BGP announces it, a static
        # local route owns it in the FIB (so delivery terminates here).
        anchor = world.node(a.anchor)
        anchor.xorp.bgp.originate(a.prefix, local_pref=ORIGIN_LOCAL_PREF)
        anchor.xorp.rib.update(
            RibRoute(a.prefix, None, "local", "static", AdminDistance.STATIC)
        )

    # eBGP at the borders, Gao-Rexford attached on both sides. The
    # session next hop is the border's address on the shared /30, which
    # the neighbor resolves via its connected route.
    for edge in spec.inter_edges:
        ra, rb = world.node(edge.a_router), world.node(edge.b_router)
        vlink = exp.network.link_between(edge.a_router, edge.b_router)
        ta, tb = DirectTransport.pair(sim, delay=0.002)
        session_a = ra.xorp.bgp.add_session(
            ta, edge.b_asn, name=f"ebgp:{edge.b_router}",
            local_addr=vlink.interface_on(ra).address,
            mrai=mrai, hold_time=hold_time,
        )
        session_b = rb.xorp.bgp.add_session(
            tb, edge.a_asn, name=f"ebgp:{edge.a_router}",
            local_addr=vlink.interface_on(rb).address,
            mrai=mrai, hold_time=hold_time,
        )
        if edge.rel == TRANSIT:  # a provides transit: b is a's customer
            world.policies[edge.a_router].attach(session_a, CUSTOMER)
            world.policies[edge.b_router].attach(session_b, PROVIDER)
        else:
            world.policies[edge.a_router].attach(session_a, PEER)
            world.policies[edge.b_router].attach(session_b, PEER)
        key = (min(edge.a_asn, edge.b_asn), max(edge.a_asn, edge.b_asn))
        world.ebgp_transports[key] = (ta, tb)
        world.ebgp_sessions[key] = (session_a, session_b)
    return world


# ----------------------------------------------------------------------
# AS-level-only instantiation (for fast policy property tests)
# ----------------------------------------------------------------------
def build_policy_graph(
    sim: Simulator,
    n_as: int,
    transit_edges: List[Tuple[int, int]],
    peer_edges: List[Tuple[int, int]],
    mrai: float = 0.1,
    delay: float = 0.005,
) -> Tuple[Dict[int, BGPDaemon], Dict[int, GaoRexfordPolicy]]:
    """One BGP speaker per AS, Gao-Rexford policy, no data plane.

    ``transit_edges`` are (provider, customer) pairs; ``peer_edges``
    unordered. Every AS originates ``99.<asn>.0.0/16``. Sessions are
    started; run the sim to converge. This is the cheap instantiation
    the Hypothesis property battery shrinks against.
    """
    daemons: Dict[int, BGPDaemon] = {}
    policies: Dict[int, GaoRexfordPolicy] = {}
    for asn in range(1, n_as + 1):
        daemon = BGPDaemon(sim, asn, asn, name=f"as{asn}")
        daemons[asn] = daemon
        policies[asn] = GaoRexfordPolicy(daemon)

    def wire(a: int, b: int, rel_b_to_a: str, rel_a_to_b: str) -> None:
        ta, tb = DirectTransport.pair(sim, delay=delay)
        sa = daemons[a].add_session(ta, b, name=f"to-as{b}", mrai=mrai)
        sb = daemons[b].add_session(tb, a, name=f"to-as{a}", mrai=mrai)
        policies[a].attach(sa, rel_b_to_a)
        policies[b].attach(sb, rel_a_to_b)

    for provider, customer in transit_edges:
        wire(provider, customer, CUSTOMER, PROVIDER)
    for a, b in peer_edges:
        wire(a, b, PEER, PEER)
    for asn, daemon in daemons.items():
        daemon.originate(f"99.{asn}.0.0/16", local_pref=ORIGIN_LOCAL_PREF)
    for daemon in daemons.values():
        for session in daemon.sessions:
            session.start()
    return daemons, policies


# ----------------------------------------------------------------------
# Scenario families
# ----------------------------------------------------------------------
def hijack_plan(
    world: InternetWorld,
    attacker_asn: int,
    victim_asn: int,
    at: float = 0.0,
    duration: Optional[float] = None,
) -> FaultPlan:
    """A prefix hijack: the attacker's anchor originates the victim's
    prefix (same length, origin LOCAL_PREF), pulling part of the
    internet toward the attacker, where traffic black-holes. With
    ``duration`` the bogus origination is withdrawn afterwards."""
    victim = world.spec.by_asn[victim_asn]
    attacker = world.anchor(attacker_asn).xorp.bgp
    plan = FaultPlan(f"hijack-as{attacker_asn}")
    plan.at(
        at, attacker.originate, victim.prefix, ORIGIN_LOCAL_PREF,
        label=f"as{attacker_asn} hijacks {victim.prefix}",
    )
    if duration is not None:
        plan.at(
            at + duration, attacker.withdraw_origin, victim.prefix,
            label=f"as{attacker_asn} withdraws {victim.prefix}",
        )
    return plan


def stuck_route_plan(
    world: InternetWorld,
    a_asn: int,
    b_asn: int,
    at: float = 0.0,
    duration: Optional[float] = None,
) -> FaultPlan:
    """A stuck route: the inter-AS data path fails and the eBGP
    transport black-holes *silently* — no notification, no transport
    down. Routes via the dead session stay installed until hold timers
    expire, so traffic black-holes while the control plane still
    advertises the path (the classic ghost/stuck-route window)."""
    key = (min(a_asn, b_asn), max(a_asn, b_asn))
    transport = world.ebgp_transports[key][0]
    edge = next(
        e for e in world.spec.inter_edges
        if {e.a_asn, e.b_asn} == {a_asn, b_asn}
    )
    plan = FaultPlan(f"stuck-as{a_asn}-as{b_asn}")
    plan.fail_link(at, edge.a_router, edge.b_router)
    plan.at(
        at, transport.blackhole,
        label=f"blackhole ebgp as{a_asn}<->as{b_asn}",
    )
    if duration is not None:
        plan.recover_link(at + duration, edge.a_router, edge.b_router)
        plan.at(
            at + duration, transport.restore,
            label=f"restore ebgp as{a_asn}<->as{b_asn}",
        )
        # If hold timers already tore the session down, bring it back
        # up (start() is a no-op on a still-established session).
        for session in world.ebgp_sessions[key]:
            plan.at(
                at + duration, session.start,
                label=f"restart ebgp as{a_asn}<->as{b_asn}",
            )
    return plan
