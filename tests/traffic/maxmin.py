"""``max_min_rates``: the max-min solver on hashable link ids.

An adapter over the plane's one fill, :func:`progressive_fill`, for the
worked examples and properties of ``test_solver.py`` and the oracle
battery of ``test_solver_property.py``: it gives each class and each
link the standing state the plane keeps (member lists in class order,
every class waiting in ``below``), calls the fill, and subtracts the
claims of the last round, which the fill leaves, in class order.
"""

from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence

from repro.traffic.solver import INF, progressive_fill


class SolveResult(NamedTuple):
    """Per-class per-flow rates plus solver introspection."""

    rates: List[float]
    iterations: int
    residual: Dict[Hashable, float]


class _Class:
    __slots__ = ("key", "hops", "cap", "count", "blocked", "rate_bps")

    def __init__(self, key, hops, cap, count, blocked):
        self.key = key
        self.hops = hops
        self.cap = cap
        self.count = count
        self.blocked = blocked
        self.rate_bps = 0.0


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
    total claim on a link is ``rates[i] * counts[i]``. A class with a
    link of no capacity is stuck at zero.
    """
    n = len(paths)
    if demands is None:
        demands = [None] * n
    if counts is None:
        counts = [1] * n
    index = {link: i for i, link in enumerate(capacities)}
    residual = [float(cap) for cap in capacities.values()]
    members: List[list] = [[] for _ in residual]
    nflows = [0] * len(residual)
    classes = []
    for i, path in enumerate(paths):
        # Constrained hops only: a link without a declared capacity
        # cannot bottleneck anything.
        hops = [index[link] for link in path if link in index]
        cls = _Class(i, hops, INF if demands[i] is None else float(demands[i]),
                     counts[i], any(residual[link] <= 0.0 for link in hops))
        for link in dict.fromkeys(hops):
            members[link].append(cls)
        if cls.count > 0 and not cls.blocked:
            for link in hops:
                nflows[link] += cls.count
        classes.append(cls)
    caps = sorted(cls.cap for cls in classes if cls.hops)
    iterations, frozen = progressive_fill(
        classes, members, set(classes), residual, nflows, set(), caps)
    for cls in classes:
        if cls.count > 0 and not cls.blocked and cls.hops and cls not in frozen:
            claim = cls.rate_bps * cls.count
            for link in cls.hops:
                remaining = residual[link] - claim
                residual[link] = remaining if remaining > 0.0 else 0.0
    return SolveResult([cls.rate_bps for cls in classes], iterations,
                       dict(zip(capacities, residual)))
