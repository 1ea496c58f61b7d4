"""The hybrid fluid/packet traffic plane.

:class:`FluidTrafficPlane` runs a flow-level (fluid) traffic model *on
the same topology* as the packet-level simulation. Background load —
the "millions of users" a packet engine cannot afford — is carried as
:class:`repro.traffic.FluidFlow` aggregates whose rates come from the
max-min fair-share solver; foreground flows under study stay fully
packet-accurate and *feel* the background through a coupling layer:

* fluid occupancy on a physical channel shrinks the bandwidth packets
  serialize at, adds M/M/1-style queueing delay, and (past a threshold
  utilization) drops packets probabilistically from a dedicated seeded
  RNG stream (``traffic.loss.<link>.<sender>``);
* shaped virtual links charge their token-bucket :class:`Shaper` with
  the fluid rate riding them, so overlay foreground traffic competes
  for the same configured capacity;
* in the reverse direction, the solver sees each channel's capacity
  reduced by the *measured* packet throughput (an EWMA over the
  channel's ``tx_bytes`` counter between solves), so heavy foreground
  traffic squeezes the fluid share exactly as real cross-traffic would.

Rates are re-solved in full, but rarely: demand changes (flow arrival,
completion, stop), route changes, and link fail/recover mark the plane
dirty and coalesce into one deferred *full* solver pass: the first mark
of an instant queues it with ``call_soon`` and sets ``_solve_pending``,
which the later marks find set — never per-packet. A pass works on state the
plane keeps, not state it rebuilds: the classes stand in a key-ordered
list (inserted at creation, filtered when one empties), every directed
channel has a dense ``index`` for life, a class's ``hops`` are its
channels' indices, rebuilt only when it is re-pathed, and each channel's
count of flows in unblocked classes stands in ``_nflows``, moved by a
class's count where a flow starts, stops or completes, around a re-path
and at a virtual-link flap; the fill takes a copy of it.
The solver fills over those indices and one walk over the ordered
classes adds each class's load onto its hops, so every channel's float
sum runs in class-key order — a function of the keys alone. A pass
skips only what cannot move its result: a channel is re-coupled only
when an input of ``_apply_channel`` (its load, the link's bandwidth or
queue) differs from the one last applied, since equal inputs install an
equal coupling; the shaper and completion walks run only when some class
has a shaper or a finite flow, since they would find nothing. Every
class's service integral and every channel's packet EWMA still advance
at every solve: where those sums are cut is a result.

Everything is deterministic: same seed, same schedule => the same
solves at the same times with the same rates, byte-identical reports.
When no plane is installed the coupling attributes stay at their zero
defaults and the packet path is bit-for-bit the pre-traffic one (the
golden-trace suite holds this).
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.traffic.flow import FluidFlow
from repro.traffic.solver import INF, progressive_fill, tcp_steady_state_cap

#: Fluid may claim at most this share of a channel; the remainder keeps
#: foreground packets serializable even under full background overload.
MAX_FLUID_SHARE = 0.98
#: Queueing-delay model saturates here (rho/(1-rho) blows up at 1.0).
MAX_RHO = 0.95
#: Reference packet for the delay model: 1500 B on the wire.
REF_PACKET_BITS = 12000.0
#: Share of each channel kept out of fluid reach before packets count.
HEADROOM = 0.02
#: Fluid-induced packet loss starts past this utilization and ramps
#: linearly to MAX_LOSS at full utilization.
LOSS_THRESHOLD = 0.85
MAX_LOSS = 0.5
#: EWMA weight of the newest measured packet throughput at a solve.
EWMA_ALPHA = 0.5


class _ChannelState:
    """Fluid bookkeeping for one direction of a physical link."""

    __slots__ = (
        "link",
        "channel",
        "index",
        "fluid_bps",
        "packet_bps",
        "coupled",
        "_last_tx_bytes",
        "_last_time",
    )

    def __init__(self, link, channel, index: int):
        self.link = link
        self.channel = channel
        self.index = index  # position in the plane's dense per-solve lists
        self.fluid_bps = 0.0
        self.packet_bps = 0.0  # EWMA of measured packet throughput
        self.coupled = None  # every input of the last _apply_channel
        self._last_tx_bytes = channel._retire().tx_bytes
        self._last_time = 0.0

    @property
    def util(self) -> float:
        return self.fluid_bps / self.link.bandwidth


class _FlowClass:
    """Flows sharing (path, per-flow cap): one solver variable."""

    __slots__ = (
        "key",
        "src",
        "dst",
        "demand_bps",
        "window_bytes",
        "cap",
        "count",
        "rate_bps",
        "served",
        "last_advance",
        "pending",
        "completion_ev",
        "channels",
        "hops",
        "rtt",
        "blocked",
        "vlink",
        "shaper",
    )

    def __init__(self, key, src: str, dst: str, demand_bps, window_bytes):
        self.key = key
        self.src = src
        self.dst = dst
        self.demand_bps = demand_bps
        self.window_bytes = window_bytes
        self.cap = INF if demand_bps is None else float(demand_bps)
        self.count = 0
        self.rate_bps = 0.0
        self.served = 0.0  # cumulative per-flow bytes served
        self.last_advance = 0.0
        # Min-heap of (served target, fid, flow) for finite flows.
        self.pending: List[Tuple[float, int, FluidFlow]] = []
        self.completion_ev = None
        self.channels: List[_ChannelState] = []
        self.hops: Tuple[int, ...] = ()  # their indices; see _assign_path
        self.rtt = 0.0
        self.blocked = False
        self.vlink = None  # direct virtual link (Experiment targets)
        self.shaper = None  # its sending-side Shaper, if shaped

    def __lt__(self, other: "_FlowClass") -> bool:
        return self.key < other.key


class FluidTrafficPlane:
    """Fluid background traffic coupled to the packet simulation.

    ``target`` is a :class:`repro.core.VINI` (flows between physical
    nodes) or a :class:`repro.core.Experiment` (flow endpoints may name
    virtual nodes; the fluid rides the physical path between their host
    nodes, and a direct shaped virtual link between the endpoints has
    its Shaper charged with the class rate).
    """

    #: The plane's label in its metrics and trace records.
    name = "traffic"

    def __init__(self, target):
        experiment = getattr(target, "network", None)
        if experiment is not None:  # an Experiment
            self.experiment = target
            self.vini = target.vini
        else:
            self.experiment = None
            self.vini = target
        self.sim = self.vini.sim

        self.flows: Dict[int, FluidFlow] = {}
        self.classes: Dict[tuple, _FlowClass] = {}  # creation order
        self._ordered: List[_FlowClass] = []  # the same classes, key order
        self._graph = None  # up-links graph of this topology epoch
        self._channel_states: Dict[Tuple[str, str], _ChannelState] = {}
        # Flows of the unblocked classes crossing each channel, by index.
        self._nflows: List[int] = []
        self._route_cache: Dict[Tuple[str, str], Optional[List[str]]] = {}
        self._next_fid = 0
        self._dirty = False
        self._solve_pending = False

        # Introspection ints (pull-based metrics read them at
        # collection time; the solve path only bumps them).
        self._flows_started = 0
        self._flows_completed = 0
        self._flows_active = 0
        self._peak_active = 0
        self._solves = 0
        self._solver_iterations = 0

        metrics = self.sim.metrics
        if metrics.enabled:
            gauge, counter = metrics.gauge, metrics.counter
            for register, metric, read in (
                (gauge, "flows_active", lambda: self._flows_active),
                (gauge, "flows_peak", lambda: self._peak_active),
                (counter, "flows_started", lambda: self._flows_started),
                (counter, "flows_completed", lambda: self._flows_completed),
                (counter, "solver_runs", lambda: self._solves),
                (counter, "solver_iterations", lambda: self._solver_iterations),
                (gauge, "classes", lambda: len(self.classes)),
            ):
                register(f"traffic.{metric}", fn=read, plane=self.name)

        # Fluid reacts to link fail/recover at both layers.
        for link in self.vini.links.values():
            link.observe(self._on_link_state)
        if self.experiment is not None:
            for vlink in self.experiment.network.links:
                vlink.observe(self._on_vlink_state)

    # ------------------------------------------------------------------
    # Demand API
    # ------------------------------------------------------------------
    def add_flow(
        self,
        src: str,
        dst: str,
        demand_bps: Optional[float] = None,
        size_bytes: Optional[float] = None,
        window_bytes: Optional[float] = None,
        count: int = 1,
    ) -> FluidFlow:
        """Start ``count`` identical fluid flows from ``src`` to ``dst``.

        ``demand_bps`` caps each flow (None = elastic, takes its fair
        share); ``size_bytes`` makes the flow finite; ``window_bytes``
        applies the TCP steady-state cap ``window * 8 / path-RTT``.
        Returns the (possibly aggregate) :class:`FluidFlow` handle.
        """
        if not isinstance(count, int) or count <= 0:
            raise ValueError(f"count must be a positive int, got {count!r}")
        # Written as ``not ... >=`` so that NaN fails too.
        if demand_bps is not None and not demand_bps >= 0:
            raise ValueError(f"demand_bps must be >= 0, got {demand_bps!r}")
        for what, size in (("size", size_bytes), ("window", window_bytes)):
            if size is not None and not size > 0:
                raise ValueError(f"{what}_bytes must be positive, got {size!r}")
        flow = FluidFlow(
            self._next_fid + 1, src, dst, demand_bps, size_bytes,
            window_bytes, count,
        )
        flow.start = self.sim.now
        flow._plane = self
        cls = self._class_for(flow)  # raises on an unknown endpoint
        self._next_fid = flow.fid
        self._advance((cls,), self.sim.now)
        flow._cls = cls
        flow._served0 = cls.served
        cls.count += count
        self._recount(cls, count)
        if size_bytes is not None:
            heapq.heappush(
                cls.pending, (cls.served + float(size_bytes), flow.fid, flow)
            )
        self.flows[flow.fid] = flow
        self._flows_started += count
        self._flows_active += count
        if self._flows_active > self._peak_active:
            self._peak_active = self._flows_active
        trace = self.sim.trace
        if trace.wants("fluid_flow"):
            trace.log(
                "fluid_flow", plane=self.name, fid=flow.fid, event="start",
                src=src, dst=dst, count=count,
            )
        self._mark_dirty()
        return flow

    def remove_flow(self, flow: FluidFlow) -> None:
        """Stop a flow before it completes (lazy heap removal)."""
        if flow.end is not None:
            return
        cls = flow._cls
        self._advance((cls,), self.sim.now)
        flow.end = self.sim.now
        flow._served1 = cls.served
        cls.count -= flow.count
        self._recount(cls, -flow.count)
        self._flows_active -= flow.count
        trace = self.sim.trace
        if trace.wants("fluid_flow"):
            trace.log(
                "fluid_flow", plane=self.name, fid=flow.fid, event="stop",
            )
        self._mark_dirty()

    # ------------------------------------------------------------------
    # Class / path management
    # ------------------------------------------------------------------
    def _resolve_endpoint(self, name: str):
        """Map an endpoint name to (phys node name, virtual node)."""
        if self.experiment is not None:
            vnode = self.experiment.network.nodes.get(name)
            if vnode is not None:
                return vnode.phys_node.name, vnode
        if name not in self.vini.nodes:
            raise KeyError(f"unknown traffic endpoint {name!r}")
        return name, None

    def _class_for(self, flow: FluidFlow) -> _FlowClass:
        key = (
            flow.src,
            flow.dst,
            -1.0 if flow.demand_bps is None else float(flow.demand_bps),
            -1.0 if flow.window_bytes is None else float(flow.window_bytes),
        )
        cls = self.classes.get(key)
        if cls is None:
            cls = _FlowClass(
                key, flow.src, flow.dst, flow.demand_bps, flow.window_bytes
            )
            cls.last_advance = self.sim.now
            self._assign_path(cls)  # resolves the endpoints, or raises:
            self.classes[key] = cls  # nothing keeps a half-built class
            insort(self._ordered, cls)
        return cls

    def _channel_state(self, link, sender_iface) -> _ChannelState:
        sender = sender_iface.node.name
        state_key = (link.name, sender)
        state = self._channel_states.get(state_key)
        if state is None:
            channel = link._channels[sender_iface]
            state = _ChannelState(link, channel, len(self._channel_states))
            state._last_time = self.sim.now
            self._channel_states[state_key] = state
            self._nflows.append(0)
            metrics = self.sim.metrics
            if metrics.enabled:
                for metric, read in (
                    ("link_fluid_bps", lambda: state.fluid_bps),
                    ("link_fluid_util", lambda: state.util),
                    ("link_packet_bps", lambda: state.packet_bps),
                ):
                    metrics.gauge(f"traffic.{metric}", fn=read, plane=self.name,
                                  link=link.name, sender=sender)
        return state

    def _route(self, src: str, dst: str) -> Optional[List[str]]:
        """Delay-shortest physical path (node names), None if cut off."""
        key = (src, dst)
        if key in self._route_cache:
            return self._route_cache[key]
        if self._graph is None:
            self._graph = self.vini._graph()
        try:
            path = nx.shortest_path(self._graph, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            path = None
        self._route_cache[key] = path
        return path

    def _assign_path(self, cls: _FlowClass) -> None:
        """(Re)compute a class's physical channels, RTT, and rate cap."""
        cls.channels = []
        cls.hops = ()
        src_phys, src_vnode = self._resolve_endpoint(cls.src)
        dst_phys, dst_vnode = self._resolve_endpoint(cls.dst)
        cls.vlink = None
        cls.shaper = None
        if src_vnode is not None and dst_vnode is not None:
            try:
                vlink = self.experiment.network.link_between(cls.src, cls.dst)
            except KeyError:
                vlink = None
            if vlink is not None:
                cls.vlink = vlink
                if vlink.bandwidth is not None:
                    ifname = (
                        vlink.ifname_a
                        if vlink.a.name == cls.src
                        else vlink.ifname_b
                    )
                    vnode = vlink.a if vlink.a.name == cls.src else vlink.b
                    cls.shaper = vnode.click.elements.get(f"shape_{ifname}")
        path = self._route(src_phys, dst_phys)
        if path is None:
            cls.blocked = True
            cls.rtt = 0.0
            return
        cls.blocked = bool(cls.vlink is not None and cls.vlink.failed)
        rtt = 0.0
        for a, b in zip(path, path[1:]):
            link = self.vini.link_between(a, b)
            sender_iface = next(
                iface for iface in link.endpoints if iface.node.name == a
            )
            cls.channels.append(self._channel_state(link, sender_iface))
            rtt += link.delay
        cls.hops = tuple(state.index for state in cls.channels)
        cls.rtt = 2.0 * rtt
        cap = INF if cls.demand_bps is None else float(cls.demand_bps)
        if cls.window_bytes is not None:
            cap = min(cap, tcp_steady_state_cap(cls.rtt, cls.window_bytes))
        cls.cap = cap

    # ------------------------------------------------------------------
    # Fault reaction
    # ------------------------------------------------------------------
    def _on_link_state(self, link, up: bool) -> None:
        self._route_cache.clear()
        self._graph = None
        # Service up to now was earned on the old paths.
        self._advance(self.classes.values(), self.sim.now)
        for cls in self.classes.values():
            self._recount(cls, -cls.count)
            self._assign_path(cls)
            self._recount(cls, cls.count)
        self._mark_dirty()

    def _on_vlink_state(self, vlink, up: bool) -> None:
        changed = False
        for cls in self.classes.values():
            if cls.vlink is vlink:
                self._advance((cls,), self.sim.now)
                self._recount(cls, -cls.count)
                cls.blocked = not up
                self._recount(cls, cls.count)
                changed = True
        if changed:
            self._mark_dirty()

    # ------------------------------------------------------------------
    # The incremental solver pass
    # ------------------------------------------------------------------
    def _recount(self, cls: _FlowClass, delta: int) -> None:
        """Move the standing counts on an unblocked class's hops."""
        if not cls.blocked:
            nflows = self._nflows
            for index in cls.hops:
                nflows[index] += delta

    def _mark_dirty(self) -> None:
        self._dirty = True
        if self._solve_pending:
            return
        self._solve_pending = True
        self.sim.call_soon(self._solve)

    def _advance(self, classes, now: float) -> None:
        """Integrate each class's service up to ``now`` at its old rate."""
        for cls in classes:
            dt = now - cls.last_advance
            if dt > 0.0:
                if cls.rate_bps > 0.0 and not cls.blocked and cls.count > 0:
                    cls.served += cls.rate_bps * dt / 8.0
                cls.last_advance = now

    def _solve(self) -> None:
        self._solve_pending = False
        if not self._dirty:
            return
        self._dirty = False
        now = self.sim.now

        # 1. Bring every class's service integral up to now; one walk
        #    drops emptied classes and zeroes idle ones, one collects the rest.
        self._advance(self._ordered, now)
        emptied = shaped = finite = False
        drained = []
        for cls in self._ordered:
            if cls.count <= 0 and not cls.pending:
                emptied = True
                del self.classes[cls.key]
                if cls.shaper is not None:
                    drained.append(cls.shaper)
                continue
            if cls.count <= 0 or cls.blocked:
                cls.rate_bps = 0.0
            if cls.shaper is not None:
                shaped = True
            if cls.pending:
                finite = True
        if emptied:
            self._ordered = [
                cls for cls in self._ordered if cls.count > 0 or cls.pending
            ]
        active = [cls for cls in self._ordered if cls.count > 0 and not cls.blocked]

        # 2. Measured packet throughput (the tx_bytes delta since the
        #    last solve, folded into the EWMA) -> per-channel capacity.
        states = self._channel_states.values()
        capacities = [0.0] * len(states)
        bandwidths = capacities[:]
        for state in states:
            dt = now - state._last_time
            if dt > 0.0:
                channel = state.channel
                sent = (channel._retire() if channel.queue else channel).tx_bytes
                instant = (sent - state._last_tx_bytes) * 8.0 / dt
                state.packet_bps = ((1.0 - EWMA_ALPHA) * state.packet_bps
                                    + EWMA_ALPHA * instant)
                state._last_tx_bytes = sent
                state._last_time = now
            bandwidths[state.index] = bandwidth = state.link.bandwidth
            cap = bandwidth * (1.0 - HEADROOM) - state.packet_bps
            floor = bandwidth * (1.0 - MAX_FLUID_SHARE)
            if not state.link.up:
                cap = 0.0
            elif cap < floor:
                cap = floor
            capacities[state.index] = cap

        # 3. One progressive-filling pass over the active classes.
        rates, iterations, _last = progressive_fill(
            [cls.hops for cls in active],
            capacities,
            [cls.cap for cls in active],
            [cls.count for cls in active],
            self._nflows[:],
        )
        self._solves += 1
        self._solver_iterations += iterations

        # 4. Couple: per-channel fluid occupancy -> packet path; shaped
        #    virtual links -> their token buckets. One walk in class-key
        #    order gives every channel's float sum an order that depends
        #    on nothing but the keys, so same-seed runs agree to the bit.
        loads = [0.0] * len(capacities)
        for cls, rate in zip(active, rates):
            cls.rate_bps = rate if rate < INF else 0.0
            load = cls.rate_bps * cls.count
            for index in cls.hops:
                loads[index] += load
        for state, load, bandwidth in zip(states, loads, bandwidths):
            key = (load, bandwidth, state.link.queue_bytes)
            if key != state.coupled:
                state.coupled = key
                self._apply_channel(state, load)
        if shaped or drained:
            shaper_loads: Dict[int, list] = {}
            for cls in self.classes.values():
                if cls.shaper is not None:
                    entry = shaper_loads.setdefault(id(cls.shaper), [cls.shaper, 0.0])
                    if cls.count > 0 and not cls.blocked:
                        entry[1] += cls.rate_bps * cls.count
            # A shaper whose classes all emptied carries no fluid now.
            for shaper in drained:
                shaper_loads.setdefault(id(shaper), [shaper, 0.0])
            for shaper, load in shaper_loads.values():
                shaper.set_fluid_bps(load)

        # 5. Re-arm one completion event per class with finite flows.
        if finite:
            for cls in self.classes.values():
                if cls.pending:
                    self._rearm_completion(cls)

    def _apply_channel(self, state: _ChannelState, total_bps: float) -> None:
        """Couple one channel; whatever this reads is in ``_solve``'s key."""
        link = state.link
        bandwidth = link.bandwidth
        fluid = total_bps
        ceiling = bandwidth * MAX_FLUID_SHARE
        if fluid > ceiling:
            fluid = ceiling
        state.fluid_bps = fluid
        if fluid <= 0.0:
            if state.channel.fluid_bps:
                state.channel.set_fluid(0.0, 0.0, 0.0, 0)
            return
        util = fluid / bandwidth
        rho = util if util < MAX_RHO else MAX_RHO
        queueing = (rho / (1.0 - rho)) * (REF_PACKET_BITS / bandwidth)
        max_queueing = link.queue_bytes * 8.0 / bandwidth
        if queueing > max_queueing:
            queueing = max_queueing
        if util > LOSS_THRESHOLD:
            loss = (util - LOSS_THRESHOLD) / (1.0 - LOSS_THRESHOLD) * MAX_LOSS
            if loss > MAX_LOSS:
                loss = MAX_LOSS
        else:
            loss = 0.0
        # Fluid backlog also eats drop-tail queue headroom.
        reserved = int(link.queue_bytes * min(util, MAX_RHO))
        state.channel.set_fluid(fluid, queueing, loss, reserved)

    # ------------------------------------------------------------------
    # Completions (processor-sharing virtual time)
    # ------------------------------------------------------------------
    def _rearm_completion(self, cls: _FlowClass) -> None:
        if cls.completion_ev is not None:
            self.sim.cancel(cls.completion_ev)
            cls.completion_ev = None
        # Skip entries for flows stopped early (lazy heap deletion).
        while cls.pending and cls.pending[0][2].end is not None:
            heapq.heappop(cls.pending)
        if not cls.pending or cls.rate_bps <= 0.0 or cls.blocked:
            return
        target = cls.pending[0][0]
        wait = (target - cls.served) * 8.0 / cls.rate_bps
        if wait < 0.0:
            wait = 0.0
        cls.completion_ev = self.sim.schedule(
            self.sim.now + wait, self._complete_due, cls
        )

    def _complete_due(self, cls: _FlowClass) -> None:
        cls.completion_ev = None
        now = self.sim.now
        self._advance((cls,), now)
        served = cls.served
        finished = []
        while cls.pending:
            target, _fid, flow = cls.pending[0]
            # Time rounding can leave ``served`` short of the target by
            # more than the byte tolerance while the remaining wait is
            # below the clock's resolution at ``now``. Re-arming would
            # fire at this same instant forever, so a wait that cannot
            # advance the clock counts as done. (The rate is positive:
            # _rearm_completion arms this event only then, and every
            # rate change re-arms.)
            if (
                flow.end is None
                and target > served + 1e-9
                and now + (target - served) * 8.0 / cls.rate_bps > now
            ):
                break
            heapq.heappop(cls.pending)
            if flow.end is None:
                finished.append(flow)
        if finished:
            trace = self.sim.trace
            wants = trace.wants("fluid_flow")
            for flow in finished:
                flow.end = now
                flow._served1 = served
                cls.count -= flow.count
                self._recount(cls, -flow.count)
                self._flows_completed += flow.count
                self._flows_active -= flow.count
                if wants:
                    trace.log(
                        "fluid_flow", plane=self.name, fid=flow.fid,
                        event="complete",
                    )
            self._mark_dirty()
        self._rearm_completion(cls)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        return {
            "flows_started": self._flows_started,
            "flows_completed": self._flows_completed,
            "flows_active": self._flows_active,
            "flows_peak": self._peak_active,
            "solver_runs": self._solves,
            "solver_iterations": self._solver_iterations,
            "classes": len(self.classes),
        }

    def utilization(self) -> Dict[Tuple[str, str], float]:
        """Fluid utilization per directed channel, (link, sender) keyed."""
        return {
            key: state.util
            for key, state in sorted(self._channel_states.items())
        }

    def as_dict(self) -> dict:
        """The ``traffic`` section of an experiment report."""
        links = [
            {"link": link_name, "sender": sender,
             "fluid_mbps": round(state.fluid_bps / 1e6, 3),
             "util": round(state.util, 4),
             "packet_mbps": round(state.packet_bps / 1e6, 3)}
            for (link_name, sender), state in sorted(self._channel_states.items())
        ]
        classes = [
            {"src": cls.src, "dst": cls.dst, "flows": cls.count,
             "rate_bps": round(cls.rate_bps, 1), "blocked": cls.blocked}
            for cls in self._ordered
        ]
        return {
            "plane": self.name,
            "flows": {
                "started": self._flows_started,
                "completed": self._flows_completed,
                "active": self._flows_active,
                "peak": self._peak_active,
            },
            "solver": {
                "runs": self._solves,
                "iterations": self._solver_iterations,
            },
            "classes": classes,
            "links": links,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FluidTrafficPlane {self.name} flows={self._flows_active} "
            f"classes={len(self.classes)} solves={self._solves}>"
        )
