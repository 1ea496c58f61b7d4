"""Sim-clock periodic sampling of metrics into time series.

A :class:`PeriodicSampler` rides the simulator's native periodic-event
machinery (``schedule_periodic``), so its ticks are ordinary events in
the deterministic (time, seq) order — adding a sampler never reorders
the events of the experiment around it, it only interleaves snapshot
reads. Each tick records the current value of every watched probe:

* a ``Counter``/``Gauge`` probe snapshots ``.value``;
* a ``Histogram`` probe snapshots the ``(count, sum)`` pair, so a
  *window* between two ticks yields an exact windowed mean
  (delta-sum / delta-count) without storing per-sample data;
* a bare callable probe snapshots whatever it returns.

Windows are read back with :meth:`delta`, :meth:`rate` and
:meth:`windowed_mean`; :meth:`series` exposes the raw ``(t, value)``
points for plotting or export via
:func:`repro.obs.export.export_series_csv`.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.export import SERIES_HEADER, _ensure_parent, series_rows

#: Tolerance when locating a snapshot at a window boundary: boundaries
#: land exactly on tick times, but callers pass times computed
#: independently, so allow float round-off.
_EDGE_EPS = 1e-9


class _Probe:
    __slots__ = ("key", "read", "points")

    def __init__(self, key: str, read: Callable[[], Any]):
        self.key = key
        self.read = read
        self.points: List[Tuple[float, Any]] = []


def _reader_for(metric) -> Callable[[], Any]:
    if getattr(metric, "kind", None) == "histogram":
        return lambda: (metric.count, metric.sum)
    return lambda: metric.value


class PeriodicSampler:
    """Snapshot watched metrics every ``interval`` sim-seconds.

    For multi-hour runs, ``max_points`` with ``spill_path`` bounds the
    in-memory cost *without losing anything*: whenever a probe's series
    exceeds the cap, the older half is appended to ``spill_path`` (the
    same long-form ``key,time,value,count,sum`` CSV as
    :func:`repro.obs.export.export_series_csv`) and dropped from
    memory. Call :meth:`finish` after the run to append the retained
    tail, yielding one complete series file while memory never held
    more than ``max_points`` snapshots per probe.
    """

    def __init__(
        self,
        sim,
        interval: float,
        name: str = "sampler",
        max_points: Optional[int] = None,
        spill_path: Optional[str] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if max_points is not None and max_points <= 0:
            raise ValueError(f"max_points must be positive, got {max_points!r}")
        if (max_points is None) != (spill_path is None):
            raise ValueError(
                "max_points= and spill_path= go together: a capped series "
                "spills its older half to the file"
            )
        self.sim = sim
        self.interval = interval
        self.name = name
        self.max_points = max_points
        self.spill_path = spill_path
        self.spilled_rows = 0
        self._spill_handle = None
        self._spill_writer = None
        self._finished = False
        self._probes: Dict[str, _Probe] = {}
        self._handle = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def watch(self, key: str, metric=None, fn: Optional[Callable[[], Any]] = None) -> "PeriodicSampler":
        """Register a probe under ``key``: either a registry metric or a
        zero-arg callable (exactly one of ``metric``/``fn``)."""
        if (metric is None) == (fn is None):
            raise ValueError("watch() takes exactly one of metric= or fn=")
        if key in self._probes:
            raise ValueError(f"probe {key!r} already watched")
        self._probes[key] = _Probe(key, fn if fn is not None else _reader_for(metric))
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, immediate: bool = True) -> "PeriodicSampler":
        """Begin ticking. With ``immediate`` a snapshot is taken at the
        current sim time as well, so windows can anchor at t=start."""
        if self._handle is not None:
            raise RuntimeError(f"sampler {self.name!r} already started")
        if immediate:
            self._tick()
        self._handle = self.sim.schedule_periodic(self.interval, self._tick)
        return self

    def stop(self, final: bool = True) -> "PeriodicSampler":
        """Stop ticking; with ``final`` take one last snapshot now."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if final:
            self._tick()
        return self

    def _tick(self) -> None:
        now = self.sim.now
        cap = self.max_points
        for probe in self._probes.values():
            points = probe.points
            points.append((now, probe.read()))
            if cap is not None and len(points) > cap:
                # Flush the older half to disk in one chunk; memory keeps
                # only the recent window, the file keeps everything.
                half = len(points) // 2
                self._spill(probe.key, points[:half])
                del points[:half]

    def _spill(self, key: str, rows: List[Tuple[float, Any]]) -> None:
        if self._finished:
            raise RuntimeError(
                f"sampler {self.name!r} already finished; cannot spill"
            )
        if self._spill_writer is None:
            _ensure_parent(self.spill_path)
            self._spill_handle = open(self.spill_path, "w")
            self._spill_writer = csv.writer(
                self._spill_handle, lineterminator="\n"
            )
            self._spill_writer.writerow(SERIES_HEADER)
        self._spill_writer.writerows(series_rows(key, rows))
        self.spilled_rows += len(rows)

    def finish(self) -> Optional[str]:
        """Append the retained in-memory tail of every probe to the
        spill file and close it, completing the on-disk series.
        Idempotent; returns the spill path (``None`` for a sampler that
        does not spill, where there is nothing to finalize)."""
        if self.spill_path is None or self._finished:
            return self.spill_path
        for probe in self._probes.values():
            self._spill(probe.key, probe.points)
        self._finished = True
        if self._spill_handle is not None:
            self._spill_handle.close()
            self._spill_handle = None
            self._spill_writer = None
        from repro.obs.archive import note_artifact
        note_artifact(self.sim, self.spill_path, "sampler_csv")
        return self.spill_path

    # ------------------------------------------------------------------
    # Readback
    # ------------------------------------------------------------------
    def series(self, key: str) -> List[Tuple[float, Any]]:
        return list(self._probes[key].points)

    def keys(self) -> List[str]:
        return list(self._probes)

    def value_at(self, key: str, t: float):
        """Value of the latest snapshot at or before ``t`` (with edge
        tolerance). Raises if no snapshot exists that early."""
        points = self._probes[key].points
        i = bisect_right(points, (t + _EDGE_EPS, _MaxSentinel))
        if i == 0:
            raise ValueError(f"no snapshot of {key!r} at or before t={t!r}")
        return points[i - 1][1]

    def delta(self, key: str, t0: float, t1: float):
        """Change in the probe's value over the window ``[t0, t1]``.
        Scalar probes return a number; histogram probes return the
        ``(dcount, dsum)`` pair."""
        v0 = self.value_at(key, t0)
        v1 = self.value_at(key, t1)
        if isinstance(v0, tuple):
            return tuple(b - a for a, b in zip(v0, v1))
        return v1 - v0

    def rate(self, key: str, t0: float, t1: float) -> float:
        """Average per-second rate of a scalar (counter) probe over the
        window."""
        if t1 <= t0:
            raise ValueError(f"need t0 < t1, got {t0!r}, {t1!r}")
        d = self.delta(key, t0, t1)
        if isinstance(d, tuple):
            raise TypeError(f"{key!r} is a histogram probe; use windowed_mean()")
        return d / (t1 - t0)

    def windowed_mean(self, key: str, t0: float, t1: float) -> float:
        """Mean of a histogram probe's observations inside the window:
        delta-sum over delta-count. NaN-free: returns 0.0 for an empty
        window."""
        d = self.delta(key, t0, t1)
        if not isinstance(d, tuple) or len(d) != 2:
            raise TypeError(f"{key!r} is not a histogram probe")
        dcount, dsum = d
        return dsum / dcount if dcount else 0.0


class _Max:
    """Compares greater than everything; tie-breaks bisect at equal times."""

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return True


_MaxSentinel = _Max()
