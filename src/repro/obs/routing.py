"""Control-plane telemetry: convergence analytics.

The paper's Section 5.2 claim is that a controlled event (a link
failure on a fixed schedule) produces an *observable* convergence
story: adjacencies drop, LSAs flood, SPF reruns, the RIB churns, and
traffic reroutes. The routing daemons emit that story on the trace
stream (``ospf_neighbor``, ``ospf_spf``, ``bgp_session``, and the
quiet ``rib_change`` kind); the report's routing timelines are those
records read back (``build_report(routing=True)``). This module adds
:class:`ConvergenceTracker`: it stitches fault injections (from
:mod:`repro.faults`) to the RIB churn they cause into per-episode
convergence stats (first reroute, route-stable, per-router /
per-prefix churn), and walks tracked overlay paths after every change
to expose blackhole and micro-loop windows (the same next-hop walk the
:class:`~repro.faults.InvariantChecker` sweeps with).

The tracker rides the trace fast path: ``rib_change`` is a quiet kind,
so a run without a tracker installed logs nothing and default golden
traces are unchanged. Installing one only *reads* the stream — it never
schedules events, so the experiment's event order is untouched.

Nothing here imports :mod:`repro.sim` or :mod:`repro.faults` at module
level (the walk helper is imported lazily), keeping the obs package's
dependencies one-way.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Path-walk statuses, as returned by
#: :func:`repro.faults.invariants.walk_overlay_path`.
DELIVERED = "delivered"
BLACKHOLE = "blackhole"
LOOP = "loop"


# ----------------------------------------------------------------------
# Convergence episodes
# ----------------------------------------------------------------------
class ConvergenceEpisode:
    """One fault firing and the route churn it caused.

    ``routers`` and ``prefixes`` map a router name / prefix string to
    ``[first_change, last_change, changes]`` within the episode.
    """

    __slots__ = ("trigger", "start", "first_change", "last_change",
                 "changes", "routers", "prefixes")

    def __init__(self, trigger: str, start: float):
        self.trigger = trigger
        self.start = start
        self.first_change: Optional[float] = None
        self.last_change: Optional[float] = None
        self.changes = 0
        self.routers: Dict[str, List[Any]] = {}
        self.prefixes: Dict[str, List[Any]] = {}

    @property
    def detection_s(self) -> Optional[float]:
        """Injection to the first route change (None: no churn yet)."""
        if self.first_change is None:
            return None
        return self.first_change - self.start

    @property
    def convergence_s(self) -> Optional[float]:
        """Injection to the last route change (route-stable point,
        assuming the episode has quiesced when it is read)."""
        if self.last_change is None:
            return None
        return self.last_change - self.start

    def note_change(self, time: float, router: str, prefix: str) -> None:
        if self.first_change is None:
            self.first_change = time
        self.last_change = time
        self.changes += 1
        for table, key in ((self.routers, router), (self.prefixes, prefix)):
            cell = table.get(key)
            if cell is None:
                table[key] = [time, time, 1]
            else:
                cell[1] = time
                cell[2] += 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trigger": self.trigger,
            "start": self.start,
            "first_change": self.first_change,
            "last_change": self.last_change,
            "detection_s": self.detection_s,
            "convergence_s": self.convergence_s,
            "changes": self.changes,
            "routers": {k: list(v) for k, v in sorted(self.routers.items())},
            "prefixes": {k: list(v) for k, v in sorted(self.prefixes.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ConvergenceEpisode {self.trigger!r} t={self.start:.3f} "
            f"changes={self.changes} convergence={self.convergence_s}>"
        )


def episode_trigger(fields: Dict[str, Any]) -> str:
    """Canonical episode trigger string for a ``fault`` trace record."""
    return "{}:{} {}".format(
        fields.get("plan", "?"), fields.get("action", "?"),
        fields.get("label", ""),
    ).strip()


class ConvergenceTracker:
    """Stitches fault injection -> first reroute -> route-stable.

    ``target`` is an Experiment, VirtualNetwork, VINI, or bare
    Simulator. With an overlay network available, ``watch_path(src,
    dst)`` additionally follows RIB next hops from ``src`` to ``dst``
    after every fault and RIB change, recording when the path is
    delivered, blackholed, or looping — the blackhole/micro-loop
    windows of a convergence transient.

    Usage::

        tracker = ConvergenceTracker(exp).install()
        tracker.watch_path("washington", "seattle")
        exp.apply_faults(plan)
        vini.run(until=...)
        tracker.episodes[-1].convergence_s
        tracker.blackhole_windows("washington", "seattle")
    """

    def __init__(self, target):
        from repro.faults.invariants import _split_target

        self.network, _vini = _split_target(target)
        if self.network is not None:
            self.sim = self.network.sim
        elif hasattr(target, "sim"):
            self.sim = target.sim
        elif hasattr(target, "trace"):
            self.sim = target  # a bare Simulator
        else:
            raise TypeError(
                f"cannot track {type(target).__name__}; expected an "
                "Experiment, VirtualNetwork, VINI, or Simulator"
            )
        self.episodes: List[ConvergenceEpisode] = []
        # (src, dst, addr-or-None) triples; addr=None walks to the tap.
        self._pairs: List[Tuple[str, str, Optional[str]]] = []
        self._path_state: Dict[Tuple[str, str, Optional[str]], str] = {}
        self._path_events: Dict[
            Tuple[str, str, Optional[str]], List[Tuple[float, str]]
        ] = {}
        self._installed = False

    # ------------------------------------------------------------------
    def install(self) -> "ConvergenceTracker":
        if self._installed:
            return self
        self._installed = True
        trace = self.sim.trace
        trace.enable("rib_change")
        trace.subscribe("fault", self._on_fault)
        trace.subscribe("rib_change", self._on_rib_change)
        # Topology-state records are logged *after* the state flips (a
        # ``fault`` record is logged before its action runs), so these
        # are where a blackhole window opens at the instant of failure.
        for kind in ("vlink_state", "link_state", "node_state"):
            trace.subscribe(kind, self._on_topology_change)
        self._walk_paths()
        return self

    def watch_path(
        self, src: str, dst: str, addr: Optional[str] = None
    ) -> "ConvergenceTracker":
        """Track the walk from ``src`` toward ``dst`` — to its tap
        address, or to ``addr`` (e.g. a BGP-originated prefix the
        destination AS anchors)."""
        if self.network is None:
            raise ValueError(
                "watch_path() needs an overlay network target, not a "
                "bare simulator"
            )
        for name in (src, dst):
            if name not in self.network.nodes:
                raise KeyError(f"no overlay node {name!r}")
        pair = (src, dst, str(addr) if addr is not None else None)
        if pair not in self._pairs:
            self._pairs.append(pair)
            if self._installed:
                self._walk_paths()
        return self

    # ------------------------------------------------------------------
    # Trace handlers
    # ------------------------------------------------------------------
    def _on_fault(self, record) -> None:
        episode = ConvergenceEpisode(episode_trigger(record.fields),
                                     record.time)
        self.episodes.append(episode)
        self._walk_paths()

    def _on_topology_change(self, _record) -> None:
        self._walk_paths()

    def _on_rib_change(self, record) -> None:
        if self.episodes:
            self.episodes[-1].note_change(
                record.time, record.fields["router"],
                record.fields["prefix"],
            )
        self._walk_paths()

    def _walk_paths(self) -> None:
        if not self._pairs:
            return
        from repro.faults.invariants import walk_overlay_path

        now = self.sim.now
        nodes = self.network.nodes
        for pair in self._pairs:
            src, dst, addr = pair
            status, _path = walk_overlay_path(
                self.network, nodes[src], nodes[dst], addr=addr
            )
            if self._path_state.get(pair) != status:
                self._path_state[pair] = status
                self._path_events.setdefault(pair, []).append((now, status))

    # ------------------------------------------------------------------
    # Readback
    # ------------------------------------------------------------------
    def path_windows(self, src: str, dst: str,
                     addr: Optional[str] = None) -> List[Dict[str, Any]]:
        """Contiguous ``{status, start, end}`` windows for one pair.
        The final window is closed now."""
        events = self._path_events.get(
            (src, dst, str(addr) if addr is not None else None), []
        )
        windows = []
        for index, (start, status) in enumerate(events):
            end = events[index + 1][0] if index + 1 < len(events) else self.sim.now
            windows.append({"status": status, "start": start, "end": end})
        return windows

    def blackhole_windows(self, src: str, dst: str) -> List[Dict[str, Any]]:
        return [w for w in self.path_windows(src, dst)
                if w["status"] == BLACKHOLE]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "episodes": [e.as_dict() for e in self.episodes],
            "paths": {
                f"{src}->{dst}" + (f"[{addr}]" if addr else ""):
                    self.path_windows(src, dst, addr=addr)
                for src, dst, addr in self._pairs
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ConvergenceTracker episodes={len(self.episodes)} "
            f"paths={len(self._pairs)}>"
        )


# ----------------------------------------------------------------------
# Offline re-derivation (the batch cross-check)
# ----------------------------------------------------------------------
def episodes_from_trace(records: Iterable[Any]) -> List[ConvergenceEpisode]:
    """Re-derive convergence episodes from a finished run's trace
    records (``sim.trace.records``, or records read back from the JSONL
    trace, as :func:`~repro.obs.query.explain_archive` does).

    The batch counterpart to :class:`ConvergenceTracker`'s incremental
    stitching: scan the ``fault`` and ``rib_change`` records in time
    order and rebuild the same episode list. Tier-1 asserts the two
    derivations are equal, the same live-vs-offline cross-check the
    metric registry gets against legacy sample scans. Only works if a
    tracker enabled ``rib_change`` during the run (quiet kinds record
    nothing by default).
    """
    episodes: List[ConvergenceEpisode] = []
    for record in records:  # time order: a trace appends in (time, seq) order
        if record.kind == "fault":
            episodes.append(
                ConvergenceEpisode(episode_trigger(record.fields), record.time)
            )
        elif record.kind == "rib_change" and episodes:
            episodes[-1].note_change(
                record.time, record.fields["router"], record.fields["prefix"]
            )
    return episodes
