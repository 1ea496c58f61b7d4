"""Gao-Rexford interdomain routing policy.

Section 2.1 of the paper motivates VINI with experiments on "routing
protocols such as BGP" under realistic *policies*; the canonical model
is Gao & Rexford's ("Stable Internet routing without global
coordination"): every AS relationship is customer/provider or
peer-to-peer, routes learned from customers are preferred over peers
over providers, and an AS only exports routes learned from customers
(or originated locally) to its peers and providers — customers hear
everything. The resulting paths are *valley-free*: a path climbs
provider links, crosses at most one peer link, then descends customer
links, and never goes back up.

:class:`GaoRexfordPolicy` attaches those rules to
:class:`~repro.routing.bgp.BGPSession` import/export hooks:

* import from a neighbor sets LOCAL_PREF by relationship, so the BGP
  decision process implements prefer-customer for free;
* export applies the no-valley rule: a route goes to a peer or
  provider only if the best path was learned from a customer (or is
  locally originated).

On a border router the *export* decision needs to know where the best
route was learned, which may have been at a different border router in
the same AS and arrived over iBGP. LOCAL_PREF survives iBGP
advertisement, so the relationship is recovered from it via
:data:`REL_BY_PREF` — the reason the preference values must be
distinct per relationship.

:func:`is_valley_free` is the matching checker the property tests use
to define correctness independently of the implementation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.routing.bgp import BGPDaemon, BGPRoute, BGPSession

CUSTOMER = "customer"
PEER = "peer"
PROVIDER = "provider"

#: LOCAL_PREF assigned on import, by the neighbor's relationship to us.
#: Distinct values per relationship: iBGP peers recover the relationship
#: class from the preference (see REL_BY_PREF).
LOCAL_PREF = {CUSTOMER: 200, PEER: 100, PROVIDER: 50}

#: LOCAL_PREF for locally originated prefixes: above everything, and
#: classified like a customer route for export (we announce our own
#: prefixes to everyone).
ORIGIN_LOCAL_PREF = 250

REL_BY_PREF = {
    ORIGIN_LOCAL_PREF: CUSTOMER,
    LOCAL_PREF[CUSTOMER]: CUSTOMER,
    LOCAL_PREF[PEER]: PEER,
    LOCAL_PREF[PROVIDER]: PROVIDER,
}


class GaoRexfordPolicy:
    """Per-daemon policy engine wiring import/export hooks to sessions."""

    def __init__(self, daemon: BGPDaemon):
        self.daemon = daemon
        # eBGP session -> our relationship to that neighbor.
        self.relationships: Dict[BGPSession, str] = {}

    # ------------------------------------------------------------------
    def attach(self, session: BGPSession, relationship: str) -> None:
        """Install Gao-Rexford import/export on an eBGP session.

        ``relationship`` is the *neighbor's* role relative to this AS:
        ``"customer"`` means the peer pays us for transit.
        """
        if relationship not in LOCAL_PREF:
            raise ValueError(f"unknown relationship {relationship!r}")
        self.relationships[session] = relationship
        session.import_policy = self._importer(relationship)
        session.export_policy = self._exporter(session, relationship)

    def _importer(self, relationship: str) -> Callable[[BGPRoute], Optional[BGPRoute]]:
        pref = LOCAL_PREF[relationship]

        def import_policy(route: BGPRoute) -> Optional[BGPRoute]:
            route.local_pref = pref
            return route

        return import_policy

    def _exporter(
        self, session: BGPSession, relationship: str
    ) -> Callable[[BGPRoute], Optional[BGPRoute]]:
        def export_policy(route: BGPRoute) -> Optional[BGPRoute]:
            # Customers hear every route we carry. Peer/provider routes
            # do not flow to peers or providers: that would give free
            # transit (a valley).
            if relationship == CUSTOMER or self._learned_rel(route) == CUSTOMER:
                return route
            return None

        return export_policy

    def _learned_rel(self, route: BGPRoute) -> Optional[str]:
        """Where did the AS learn its best path for this prefix?

        Returns CUSTOMER for locally originated prefixes too (they
        export everywhere). For routes that arrived at this router over
        iBGP the learning session lives on another border router, so
        the relationship is recovered from the LOCAL_PREF the ingress
        border assigned (preserved across iBGP).
        """
        found = self.daemon.loc_rib.get(route.prefix.key)
        if found is None:
            return None
        best, learned_from = found
        if learned_from is None:
            return CUSTOMER  # locally originated
        rel = self.relationships.get(learned_from)
        if rel is not None:
            return rel
        return REL_BY_PREF.get(best.local_pref)


def is_valley_free(
    path: Sequence[int], rel_of: Callable[[int, int], Optional[str]]
) -> bool:
    """Check the Gao-Rexford valley-free property of an AS-level path.

    ``path`` lists ASes from the listener to the origin (the order an
    AS path attribute carries, with the listener prepended).
    ``rel_of(a, b)`` gives b's relationship to a — CUSTOMER when b is
    a's customer — or None when the ASes are not adjacent.

    Walking origin -> listener, each step is *up* (customer to
    provider), *flat* (peer to peer), or *down* (provider to customer);
    a valid path matches ``up* flat? down*``.
    """
    if len(path) < 2:
        return True
    steps = []
    for listener_side, origin_side in zip(path, path[1:]):
        # The route flows origin_side -> listener_side.
        rel = rel_of(origin_side, listener_side)
        if rel is None:
            return False
        if rel == PROVIDER:
            steps.append("up")  # sender climbed to its provider
        elif rel == PEER:
            steps.append("flat")
        else:
            steps.append("down")
    steps.reverse()  # origin -> listener order
    state = "up"
    for step in steps:
        if step == "up":
            if state != "up":
                return False
        elif step == "flat":
            if state != "up":
                return False
            state = "down"
        else:
            state = "down"
    return True
