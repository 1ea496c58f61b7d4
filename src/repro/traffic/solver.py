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

The module is engine-free. There is one filling loop,
:func:`progressive_fill`, over the state the plane keeps standing
between solves: the live classes in key order, each channel's member
classes in key order, and the set of classes whose rate may not be
their cap. A re-solve writes only the rates that move and names the
channels whose load they move.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import List, Sequence, Set, Tuple

from repro.net.tcp import MSS

INF = float("inf")

_KEY = attrgetter("key")


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
    ordered: Sequence,
    members: Sequence[Sequence],
    below: Set,
    residual: List[float],
    nflows: List[int],
    moved: Set[int],
    caps: Sequence[float],
) -> Tuple[int, Set]:
    """The filling loop: set every class's ``rate_bps``; return
    ``(iterations, frozen)``.

    A class has a ``key``, ``hops`` (channel indices), a per-flow
    ``cap``, a ``count``, ``blocked`` and ``rate_bps``; it is *active*
    while its count is positive, it is not blocked and it has a hop.
    ``ordered`` holds the live classes in key order and ``members[c]``
    those crossing channel ``c``, once each, in key order. ``below``
    holds at least every idle or hopless class and every active one
    whose rate is not its cap; the fill leaves it so. ``caps`` is sorted
    and holds at least the active classes' caps. ``residual`` (each
    channel's capacity, positive: a class crossing a channel of none is
    to be blocked) and ``nflows`` (the flows of active classes crossing
    it) are consumed in place. Every class whose rate changes adds its
    hops to ``moved``.

    The rounds are those of a fill over every active class in key
    order: a class with a cap at or below the water level is fixed at
    its cap; if none is, the classes on the tightest channels are fixed
    at the level; each round's claims are subtracted in key order. A
    round whose level is at or above every cap fixes every class left,
    and its claims are not subtracted: only the classes of ``frozen``
    were.
    """
    for cls in below:
        if cls.count <= 0 or cls.blocked:
            rate = 0.0
        elif cls.hops:
            continue
        else:
            # Unconstrained class: it gets its demand (an elastic class
            # with no constraining link has no finite fair share; pin 0).
            rate = cls.cap if cls.cap < INF else 0.0
        if rate != cls.rate_bps:
            cls.rate_bps = rate
            moved.update(cls.hops)
    bottom = caps[0] if caps else INF
    top = caps[-1] if caps else INF
    frozen: Set = set()
    iterations = 0
    while True:
        # The water level: the smallest equal-share any constraining
        # link could still grant its remaining flows. Only active
        # classes count in ``nflows``: when none is left, it is INF.
        shares = [
            room / flows if flows > 0 else INF
            for room, flows in zip(residual, nflows)
        ]
        level = min(shares, default=INF)
        if level == INF:
            return iterations, frozen
        iterations += 1
        if level >= top:
            # Every class left is demand-limited at this level: the
            # round fixes them all at their caps, which only those in
            # ``below`` are not at yet.
            for cls in [cls for cls in below if cls.count > 0
                        and not cls.blocked and cls.hops and cls not in frozen]:
                if cls.rate_bps != cls.cap:
                    cls.rate_bps = cls.cap
                    moved.update(cls.hops)
                below.discard(cls)
            return iterations, frozen
        # Demand-limited classes can never use the full level; fix them
        # at their caps and refill the slack next round. Below every
        # cap, no class is.
        fixed = [cls for cls in ordered if cls.cap <= level and cls.count > 0
                 and not cls.blocked and cls.hops
                 and cls not in frozen] if level >= bottom else []
        for cls in fixed:
            if cls.rate_bps != cls.cap:
                cls.rate_bps = cls.cap
                moved.update(cls.hops)
            below.discard(cls)
        if not fixed:
            slack = level + level * 1e-12
            tight = [link for link, share in enumerate(shares) if share <= slack]
            fixed = sorted({cls for link in tight for cls in members[link]
                            if cls.count > 0 and not cls.blocked
                            and cls not in frozen}, key=_KEY)
            for cls in fixed:
                if cls.rate_bps != level:
                    cls.rate_bps = level
                    moved.update(cls.hops)
            below.update(fixed)
        # Subtract in key order: each link's residual is a float sum
        # and must not depend on how classes were frozen.
        for cls in fixed:
            count = cls.count
            claim = cls.rate_bps * count
            for link in cls.hops:
                remaining = residual[link] - claim
                residual[link] = remaining if remaining > 0.0 else 0.0
                nflows[link] -= count
        frozen.update(fixed)
