"""Max-min fair-share rate solver (progressive filling).

The fluid traffic plane models background load as *flow classes*:
groups of identical flows sharing a path and a per-flow rate cap. The
solver assigns each class the max-min fair per-flow rate — the unique
allocation where no flow can be sped up without slowing down a flow
that is no faster — by progressive filling (water-filling): raise the
common water level until a link saturates or a class hits its demand
cap, freeze the classes that can grow no further, subtract their share,
repeat.

Grouping flows into classes is what makes 100k+ concurrent flows
tractable: a flash crowd of 100 000 identical downloads over four leaf
links is *four* classes, so one solve is O(classes x links) no matter
how many users ride each class.

The module is engine-free: it operates on plain sequences and mappings
so property tests (capacity conservation, insertion-order invariance)
can drive it directly, without a simulator. There is one filling loop,
:func:`progressive_fill`, over dense link indices; the plane calls it
on the indices and flow counts it keeps, and :func:`max_min_rates` is
the public hashable-link API that translates and counts once, calls it,
and subtracts the last round's claims the fill leaves to it.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from repro.net.tcp import MSS

INF = float("inf")


class SolveResult(NamedTuple):
    """Per-class per-flow rates plus solver introspection."""

    rates: List[float]
    iterations: int
    residual: Dict[Hashable, float]


def tcp_steady_state_cap(
    rtt_s: float,
    window_bytes: float = 65535,
    loss_rate: float = 0.0,
) -> float:
    """Steady-state TCP throughput cap for one flow, in bits/s.

    Receive-window bound ``window * 8 / RTT``, tightened by the Mathis
    loss bound ``(MSS * 8 / RTT) * sqrt(1.5 / p)`` when a loss rate is
    given, with the segment size the packet TCP sends. Returns ``inf``
    for a degenerate (non-positive) RTT — the flow is then limited only
    by its demand and the network.
    """
    if rtt_s <= 0.0:
        return INF
    cap = window_bytes * 8.0 / rtt_s
    if loss_rate > 0.0:
        cap = min(cap, (MSS * 8.0 / rtt_s) * math.sqrt(1.5 / loss_rate))
    return cap


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


def max_min_rates(
    paths: Sequence[Sequence[Hashable]],
    capacities: Dict[Hashable, float],
    demands: Optional[Sequence[Optional[float]]] = None,
    counts: Optional[Sequence[int]] = None,
) -> SolveResult:
    """Max-min fair per-flow rates for flow classes over shared links.

    ``paths[i]`` is the sequence of link ids class ``i`` crosses (ids
    must be hashable; links missing from ``capacities`` are treated as
    unconstrained). ``demands[i]`` caps each flow of the class (``None``
    or ``inf`` = elastic); ``counts[i]`` is the number of flows in the
    class (default 1). Returns per-class *per-flow* rates, so a class's
    total claim on a link is ``rates[i] * counts[i]``.

    Properties (covered by the Hypothesis battery):

    * conservation — on every link, the summed allocation never exceeds
      capacity (beyond float rounding);
    * order invariance — the allocation is a function of the class
      *set*, not the insertion order, because each round freezes classes
      by a globally-computed water level.
    """
    n = len(paths)
    if demands is None:
        caps = [INF] * n
    else:
        caps = [INF if d is None else float(d) for d in demands]
    index = {link: i for i, link in enumerate(capacities)}
    residual = [float(cap) for cap in capacities.values()]
    # Constrained hops only: a link without a declared capacity cannot
    # bottleneck anything.
    hops = [[index[link] for link in path if link in index] for path in paths]
    if counts is None:
        counts = [1] * n
    nflows = [0] * len(residual)
    for path, count in zip(hops, counts):
        if count > 0:
            for link in path:
                nflows[link] += count
    rates, iterations, last = progressive_fill(hops, residual, caps, counts, nflows)
    for i in last:  # the fill's last round, subtracted in its order
        claim = rates[i] * counts[i]
        for link in hops[i]:
            remaining = residual[link] - claim
            residual[link] = remaining if remaining > 0.0 else 0.0
    return SolveResult(rates, iterations, dict(zip(capacities, residual)))
