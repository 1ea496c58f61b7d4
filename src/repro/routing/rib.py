"""The RIB: multi-protocol route arbitration.

Each protocol daemon offers candidate routes; the RIB picks a winner
per prefix (lowest administrative distance, then lowest metric, then
protocol registration order for determinism) and pushes the choice
through the FEA to the data plane. This is XORP's rib process in
miniature: it is also where route *redistribution* hooks live (e.g. BGP
resolving its next hops against IGP routes).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.net.addr import IPv4Address, Prefix, prefix
from repro.net.trie import RadixTrie
from repro.routing.platform import FEA

#: Election outcomes, in the order their counters are registered.
_CHURN_OPS = ("add", "replace", "withdraw")


class AdminDistance:
    """Conventional administrative distances."""

    CONNECTED = 0
    STATIC = 1
    EBGP = 20
    OSPF = 110
    RIP = 120
    IBGP = 200


class RibRoute:
    """One candidate route offered by a protocol."""

    __slots__ = ("prefix", "nexthop", "ifname", "protocol", "distance", "metric")

    def __init__(
        self,
        pfx: Union[str, Prefix],
        nexthop: Optional[IPv4Address],
        ifname: str,
        protocol: str,
        distance: int,
        metric: float = 0.0,
    ):
        self.prefix = prefix(pfx)
        self.nexthop = nexthop
        self.ifname = ifname
        self.protocol = protocol
        self.distance = distance
        self.metric = metric

    @property
    def sort_key(self) -> Tuple[int, float]:
        return (self.distance, self.metric)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        via = f" via {self.nexthop}" if self.nexthop else ""
        return (
            f"<RibRoute {self.prefix}{via} dev {self.ifname} "
            f"[{self.protocol} {self.distance}/{self.metric:g}]>"
        )


class RIB:
    """Route arbitration with FEA propagation and change listeners."""

    def __init__(self, fea: FEA, sim, name: str = ""):
        self.fea = fea
        self.name = name
        # prefix key -> {protocol: RibRoute}
        self._candidates: Dict[Tuple[int, int], Dict[str, RibRoute]] = {}
        self._winners = RadixTrie()
        self._change_callbacks: List[Callable[[Prefix, Optional[RibRoute]], None]] = []
        self._trace = sim.trace
        self._churn = {
            op: sim.metrics.counter("rib.changes", router=name, op=op)
            for op in _CHURN_OPS
        }

    # ------------------------------------------------------------------
    def update(self, route: RibRoute) -> None:
        """Offer (or refresh) a protocol's candidate for a prefix."""
        key = route.prefix.key
        self._candidates.setdefault(key, {})[route.protocol] = route
        self._elect(route.prefix)

    def withdraw(self, pfx: Union[str, Prefix], protocol: str) -> None:
        """Remove a protocol's candidate for a prefix (no-op if absent)."""
        pfx = prefix(pfx)
        candidates = self._candidates.get(pfx.key)
        if not candidates or protocol not in candidates:
            return
        del candidates[protocol]
        if not candidates:
            del self._candidates[pfx.key]
        self._elect(pfx)

    def withdraw_protocol(self, protocol: str) -> None:
        """Remove every candidate a protocol has offered."""
        for key in list(self._candidates):
            candidates = self._candidates[key]
            if protocol in candidates:
                del candidates[protocol]
                pfx = Prefix(key[0], key[1])
                if not candidates:
                    del self._candidates[key]
                self._elect(pfx)

    # ------------------------------------------------------------------
    def _elect(self, pfx: Prefix) -> None:
        candidates = self._candidates.get(pfx.key, {})
        new_best = min(candidates.values(), key=lambda r: r.sort_key) if candidates else None
        old_best = self._winners.get(pfx)
        if _same_route(old_best, new_best):
            # Still notify nothing; the FIB already matches.
            return
        if new_best is None:
            op = "withdraw"
            self._winners.remove(pfx)
            self.fea.withdraw(pfx)
        else:
            op = "add" if old_best is None else "replace"
            self._winners.insert(pfx, new_best)
            self.fea.install(pfx, new_best.nexthop, new_best.ifname)
        self._churn[op].inc()
        if self._trace.wants("rib_change"):
            winner = new_best if new_best is not None else old_best
            self._trace.log(
                "rib_change",
                router=self.name,
                prefix=str(pfx),
                op=op,
                protocol=winner.protocol,
                nexthop=str(new_best.nexthop) if new_best is not None
                and new_best.nexthop is not None else "",
            )
        for listener in self._change_callbacks:
            listener(pfx, new_best)

    # ------------------------------------------------------------------
    def best(self, pfx: Union[str, Prefix]) -> Optional[RibRoute]:
        return self._winners.get(prefix(pfx))

    def lookup(self, addr: Union[str, IPv4Address]) -> Optional[RibRoute]:
        found = self._winners.lookup_entry(addr)
        return found[1] if found is not None else None

    def routes(self) -> List[RibRoute]:
        return [route for _pfx, route in self._winners.items()]

    def on_change(self, listener: Callable[[Prefix, Optional[RibRoute]], None]) -> None:
        self._change_callbacks.append(listener)

    def rebuild_fib(self) -> None:
        """Re-program the FEA from scratch from the current winners.

        The steady-state path applies deltas (`_elect` installs or
        withdraws exactly the prefix that moved); this is the
        full-rebuild reference the differential tests compare that
        delta stream against — after any update sequence, the FIB a
        rebuild produces must be identical to the one the deltas left
        behind.
        """
        self.fea.clear()
        for pfx, route in self._winners.items():
            self.fea.install(pfx, route.nexthop, route.ifname)

    def __len__(self) -> int:
        return len(self._winners)


def _same_route(a: Optional[RibRoute], b: Optional[RibRoute]) -> bool:
    if a is None or b is None:
        return a is b
    return (
        a.nexthop == b.nexthop
        and a.ifname == b.ifname
        and a.protocol == b.protocol
        and a.sort_key == b.sort_key
    )
