"""Differential battery: the fluid re-solve against the one it replaced.

The re-solve works from standing state that says what moved (member
lists per channel, the classes below their cap, the channels whose
load inputs moved) instead of walking every class in every round. Its
oracle is the plane's ``_solve`` and ``progressive_fill`` as they stood
before that change, kept verbatim below: they walk every live class,
fill over every active one and sum every channel's load afresh. Both
planes ride the same world under the same Hypothesis-drawn churn on a
four-node underlay with an overlay on it and a ping across it, and the
``repr`` of every solve's classes, channels and shapers must be
**equal**, as must every flow's end and every ping: the plane's loss
draws hang off the last bit of each rate.

The draws cover mixed caps (elastic, 0 demand, coarse values that tie),
window caps, a pathless class (both endpoints on host ``a``), finite
flows, early stops, physical and virtual link flaps and a shaped
virtual link; :data:`FALL_THROUGH` pins the mixed-cap round whose cap
test finds no class left (its low-cap class is cut), which must fall
through to a tight-link round, and :data:`BACK_TO_CAP` a class that
leaves its cap in a tight-link round and must come back to it.
"""

from typing import Dict, List, Sequence, Tuple

import pytest

from repro.core import VINI, Experiment
from repro.tools import Ping
from repro.traffic import FluidTrafficPlane
from repro.traffic.plane import EWMA_ALPHA, HEADROOM, INF, MAX_FLUID_SHARE
from tests.conftest import battery
from tests.traffic.test_plane_golden import installed_coupling

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st


def progressive_fill(
    hops: Sequence[Sequence[int]],
    residual: List[float],
    caps: Sequence[float],
    counts: Sequence[int],
    nflows: List[int],
) -> Tuple[List[float], int, List[int]]:
    """The filling loop, on dense state: ``(rates, iterations, last)``.

    ``hops[i]`` indexes ``residual`` (each link's capacity) and ``nflows``
    (the flows of positive-count classes crossing it), both consumed in
    place. The loop returns at the round that fixes every class left, as
    ``last``, without subtracting their claims: only :func:`max_min_rates`
    reads the residuals, and it subtracts ``last`` in this order.
    """
    rates = [0.0] * len(hops)
    for i, path in enumerate(hops):
        if not path and counts[i] > 0:
            # Unconstrained class: it gets its demand (an elastic class
            # with no constraining link has no finite fair share; pin 0).
            rates[i] = caps[i] if caps[i] < INF else 0.0
    active = [i for i, path in enumerate(hops) if path and counts[i] > 0]
    dead = {link for link, room in enumerate(residual) if room <= 0.0}
    if dead:  # a class with a dead hop is stuck at zero
        for i in active:
            if not dead.isdisjoint(hops[i]):
                for link in hops[i]:
                    nflows[link] -= counts[i]
        active = [i for i in active if dead.isdisjoint(hops[i])]

    iterations = 0
    while active:
        iterations += 1
        # The water level: the smallest equal-share any constraining
        # link could still grant its remaining flows.
        shares = [
            room / flows if flows > 0 else INF
            for room, flows in zip(residual, nflows)
        ]
        level = min(shares)
        fixed = [i for i in active if caps[i] <= level]
        if fixed:
            # Demand-limited classes can never use the full level; fix
            # them at their caps and refill the slack next round.
            for i in fixed:
                rates[i] = caps[i]
        elif level < INF:
            slack = level + level * 1e-12
            tight = {link for link, share in enumerate(shares) if share <= slack}
            fixed = [i for i in active if not tight.isdisjoint(hops[i])]
            for i in fixed:
                rates[i] = level
        else:  # pragma: no cover - defensive: no constraining link left
            break
        if len(fixed) == len(active):
            return rates, iterations, fixed  # the round fixed every class left
        # Subtract in active-class order: each link's residual is a
        # float sum and must not depend on how classes were frozen.
        for i in fixed:
            count = counts[i]
            claim = rates[i] * count
            for link in hops[i]:
                remaining = residual[link] - claim
                residual[link] = remaining if remaining > 0.0 else 0.0
                nflows[link] -= count
        frozen = set(fixed)
        active = [i for i in active if i not in frozen]
    return rates, iterations, []


class ParentPlane(FluidTrafficPlane):
    """The plane with the re-solve it had before, verbatim."""

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
            if cap < floor:  # a down link carries only blocked classes
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


class Recording:
    """Appends the ``repr`` of every real solve's outputs to ``stream``."""

    def _solve(self) -> None:
        before = self._solves
        super()._solve()
        if self._solves == before:
            return
        classes = [
            (cls.key, cls.rate_bps, cls.served, cls.last_advance, cls.blocked,
             cls.count)
            for cls in self._ordered
        ]
        channels = [
            (key, state.packet_bps, installed_coupling(state))
            for key, state in sorted(self._channel_states.items())
        ]
        shapers = [(name, element._fluid_bps)
                   for name, element in sorted(self.shapers.items())]
        self.stream.append(repr((self.sim.now, sorted(self.classes), classes,
                                 channels, shapers, self.stats)))


class NewPlane(Recording, FluidTrafficPlane):
    pass


class OldPlane(Recording, ParentPlane):
    pass


# Virtual nodes and their hosts: ``vx`` shares ``a`` with ``va``.
HOSTS = {"va": "a", "vb": "b", "vc": "c", "vd": "d", "vx": "a"}
LINKS = [("a", "b", 10e6), ("b", "c", 4e6), ("c", "d", 10e6), ("b", "d", 6e6)]
VLINKS = [("va", "vb"), ("vb", "vc"), ("vc", "vd"), ("vx", "vb")]
SHAPED = ("vb", "vc")  # shaped to 3 Mb/s
ENDPOINTS = sorted(HOSTS) + ["a", "b", "c", "d"]


def run(plane_class, schedule) -> Tuple[list, list, dict, list]:
    """One world under ``schedule``: the solve stream, every flow's
    ``(fid, end, served_bytes)``, the final report section and the
    foreground pings."""
    vini = VINI(seed=3)
    for name in "abcd":
        vini.add_node(name)
    for a, b, bandwidth in LINKS:
        vini.connect(a, b, bandwidth=bandwidth, delay=0.005)
    vini.install_underlay_routes()
    exp = Experiment(vini, "battery", realtime=False)
    for vnode, host in HOSTS.items():
        exp.add_node(vnode, host)
    for a, b in VLINKS:
        exp.connect(a, b, bandwidth=3e6 if (a, b) == SHAPED else None)
    plane = plane_class(exp)
    plane.stream = []
    plane.shapers = {
        f"{vnode.name}.{name}": element
        for vnode in exp.network.nodes.values()
        for name, element in vnode.click.elements.items()
        if name.startswith("shape_")
    }
    sim = vini.sim
    flows = []

    def start(src, dst, demand, window, size, count, stop):
        flow = plane.add_flow(src, dst, demand_bps=demand, size_bytes=size,
                              window_bytes=window, count=count)
        flows.append(flow)
        if stop is not None:
            sim.schedule(sim.now + stop, flow.stop)

    for at, what, args in schedule:
        if what == "flow":
            sim.schedule(at, start, *args)
        else:
            kind, (a, b), down = args
            link = (vini.link_between(a, b) if kind == "phys"
                    else exp.network.link_between(a, b))
            sim.schedule(at, link.fail)
            sim.schedule(at + down, link.recover)
    # Foreground packets feed the channels' packet EWMAs, so capacities
    # move between solves, and feel the fluid's loss.
    ping = Ping(vini.nodes["a"], vini.nodes["c"].address, interval=0.1,
                count=100).start()
    vini.run(until=12.0)
    ends = [(flow.fid, flow.end, flow.served_bytes) for flow in flows]
    return plane.stream, ends, plane.as_dict(), ping.samples


def flows(elastic: bool):
    """``start`` arguments; without ``elastic``, every class has a
    finite cap, so that a round can be at or above every live one."""
    return st.tuples(
        st.sampled_from(ENDPOINTS),
        st.sampled_from(ENDPOINTS),
        st.sampled_from([None if elastic else 1.5e6, 0.0, 0.25e6, 0.5e6,
                         1e6, 1e6, 2e6, 3e6]),
        st.sampled_from([None, None, None, 16384.0, 65535.0]),
        st.one_of(st.none(), st.sampled_from([2e4, 1e5, 4e5])),
        st.sampled_from([1, 1, 2, 3, 10]),
        st.one_of(st.none(), st.sampled_from([0.3, 1.0, 2.5])),
    ).filter(lambda f: f[0] != f[1])


flaps = st.one_of(
    st.tuples(st.just("phys"), st.sampled_from([(a, b) for a, b, _ in LINKS])),
    st.tuples(st.just("virt"), st.sampled_from(VLINKS)),
).flatmap(lambda f: st.tuples(*map(st.just, f), st.sampled_from([0.5, 2.0])))
times = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0, 4.5])
schedules = st.booleans().flatmap(lambda elastic: st.lists(
    st.one_of(
        st.tuples(times, st.just("flow"), flows(elastic)),
        st.tuples(times, st.just("flap"), flaps),
    ),
    min_size=1, max_size=14,
))

# A 0.25 Mb/s class over the 4 Mb/s b--c link under five elastic ones:
# the level (< 1 Mb/s) is at or above the lowest live cap but below the
# 3 Mb/s one, so the round walks the classes for caps at or below it;
# with the va--vb virtual link down, the 0.25 Mb/s class is cut and the
# walk finds none, so the round is a tight-link one.
FALL_THROUGH = [
    (0.0, "flow", ("va", "vc", 0.25e6, None, None, 1, None)),
    (0.0, "flow", ("vd", "vb", 3e6, None, None, 1, None)),
    (0.0, "flow", ("b", "c", None, None, None, 5, None)),
    (1.0, "flap", ("virt", ("va", "vb"), 2.0)),
    (1.5, "flow", ("c", "b", None, None, 1e5, 2, None)),
]


# A 3 Mb/s class alone at its cap on b--c, squeezed below it by a 2 Mb/s
# one; when that one stops, the round is at or above every live cap and
# must still lift the first class back to its cap.
BACK_TO_CAP = [
    (0.0, "flow", ("b", "c", 3e6, None, None, 1, None)),
    (1.0, "flow", ("vb", "vc", 2e6, None, None, 1, 1.0)),
]


@given(schedules)
@example(FALL_THROUGH)
@example(BACK_TO_CAP)
@battery(40)
def test_resolve_equals_the_one_it_replaced(schedule):
    assert run(NewPlane, schedule) == run(OldPlane, schedule)
