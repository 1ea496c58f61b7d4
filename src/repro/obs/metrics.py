"""Metrics: counters, gauges, histograms, and the registry that owns them.

The substrate's evidence is measurement (Tables 2-6, Figures 6-9 are
all numbers read off the running system), so measurement is a
first-class subsystem rather than ad-hoc trace scans. Components
publish three kinds of instruments, keyed by ``(name, labels)``:

* :class:`Counter` — a monotonically increasing total (packets
  delivered, bytes received, SPF runs). Either *push* (``inc()``) or
  *pull* (constructed with ``fn=``, reading a live attribute at
  collection time for zero hot-path cost).
* :class:`Gauge` — a point-in-time level (queue depth, run-queue
  length). Push (``set()``) or pull (``fn=``).
* :class:`Histogram` — a distribution over fixed log-spaced buckets
  with exact count/sum/sum-of-squares/min/max and approximate
  p50/p95/p99 readout (scheduling latency, RTT, jitter).

Hot paths keep their plain integer counters; the registry is how those
numbers become *artifacts* — snapshot rows for the JSONL/CSV exporters
(:mod:`repro.obs.export`), probes for :class:`repro.obs.PeriodicSampler`
time series, and headline numbers for ``benchmarks/paper.py``.

A disabled registry (``enabled=False``, or flipping
``MetricsRegistry.default_enabled`` before building a world) hands out
a shared null instrument whose methods do nothing, so instrumented
code needs no guards and a metrics-off run does no bookkeeping.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def log_buckets(lo: float = 1e-6, hi: float = 1e3, per_decade: int = 4) -> Tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds spanning ``[lo, hi]``."""
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got {lo!r}, {hi!r}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade!r}")
    decades = math.log10(hi / lo)
    n = int(round(decades * per_decade))
    step = 10.0 ** (1.0 / per_decade)
    bounds = [lo]
    for _ in range(n):
        bounds.append(bounds[-1] * step)
    return tuple(bounds)


#: Default bounds: 1 microsecond to 1000 seconds, 4 buckets per decade.
#: Wide enough for every duration-like quantity in the substrate
#: (per-hop delays through RTTs through convergence times).
DEFAULT_BUCKETS = log_buckets(1e-6, 1e3, 4)


class Metric:
    """Common identity for all instrument kinds."""

    __slots__ = ("name", "labels")
    kind = "metric"

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = dict(labels)

    def snapshot(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        labels = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"<{type(self).__name__} {self.name}{{{labels}}}>"


class Counter(Metric):
    """A monotonically increasing total.

    Push counters count :meth:`inc` calls; pull counters are given a
    function (:meth:`set_function`) and read a live value (an existing
    hot-path integer) only when collected, costing the instrumented
    code nothing.
    """

    __slots__ = ("_value", "_fn")
    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, Any]):
        super().__init__(name, labels)
        self._value = 0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self) -> None:
        if self._fn is not None:
            raise RuntimeError(f"{self.name} is a pull counter; it cannot be inc()ed")
        self._value += 1

    def set_function(self, fn: Callable[[], float]) -> "Counter":
        self._fn = fn
        return self

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": self.labels,
            "type": self.kind,
            "value": self.value,
        }


class Gauge(Metric):
    """A point-in-time level: push via ``set``, or pull via ``set_function``."""

    __slots__ = ("_value", "_fn")
    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, Any]):
        super().__init__(name, labels)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._value = value

    def set_function(self, fn: Callable[[], float]) -> "Gauge":
        self._fn = fn
        return self

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": self.labels,
            "type": self.kind,
            "value": self.value,
        }


class Histogram(Metric):
    """A distribution over the log-spaced :data:`DEFAULT_BUCKETS`.

    ``count``/``sum``/``sum_sq``/``min``/``max`` are exact (so means
    and standard deviations match a per-sample computation bit-for-bit
    or to float round-off); quantiles are read off the buckets with
    linear interpolation inside the landing bucket, clamped to the
    observed ``[min, max]``.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "sum_sq", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, Any]):
        super().__init__(name, labels)
        self.bounds = DEFAULT_BUCKETS
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.sum_sq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        if not self.count:
            return 0.0
        variance = self.sum_sq / self.count - self.mean ** 2
        return math.sqrt(max(variance, 0.0))

    def quantile(self, q: float) -> float:
        """Approximate q-quantile from the buckets (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if not n:
                continue
            if cumulative + n >= target:
                lo = self.min if i == 0 else self.bounds[i - 1]
                hi = self.max if i >= len(self.bounds) else self.bounds[i]
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                fraction = (target - cumulative) / n
                return lo + (hi - lo) * fraction
            cumulative += n
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": self.labels,
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "sum_sq": self.sum_sq,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            # Raw buckets so dashboards can draw real percentile curves
            # instead of re-deriving them from three summary points.
            # ``le`` follows Prometheus: counts are cumulative per upper
            # bound, with +Inf as the final bound.
            "buckets": self.cumulative_buckets(),
        }

    def cumulative_buckets(self) -> List[List[Any]]:
        """``[upper_bound, cumulative_count]`` pairs (Prometheus ``le``
        semantics); the final bound is ``"+Inf"``."""
        pairs: List[List[Any]] = []
        cumulative = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            cumulative += count
            pairs.append([bound, cumulative])
        pairs.append(["+Inf", self.count])
        return pairs


class NullMetric:
    """Shared do-nothing instrument handed out by a disabled registry.

    Implements the full Counter/Gauge/Histogram surface so components
    can instrument unconditionally; every method is a no-op and every
    readout is zero.
    """

    __slots__ = ()
    kind = "null"
    name = ""
    labels: Dict[str, Any] = {}

    def inc(self) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> "NullMetric":
        return self

    def quantile(self, q: float) -> float:
        return 0.0

    value = 0.0
    count = 0
    sum = 0.0
    sum_sq = 0.0
    mean = 0.0
    stddev = 0.0
    min = 0.0
    max = 0.0
    p50 = p95 = p99 = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {}


NULL_METRIC = NullMetric()


class MetricsRegistry:
    """All instruments of one simulation, keyed by ``(name, labels)``.

    Asking for an existing key returns the same object, so independent
    call sites share a series. When the registry is disabled —
    :attr:`default_enabled` flipped before the world is built — every
    factory returns the shared :data:`NULL_METRIC` and nothing is
    registered, making a metrics-off run bit-identical to one without
    instrumentation at all.
    """

    #: Class-wide default: tests flip this to build whole worlds with
    #: metrics off.
    default_enabled = True

    def __init__(self, sim=None):
        self.sim = sim
        self.enabled = type(self).default_enabled
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels: Dict[str, Any]):
        if not self.enabled:
            return NULL_METRIC
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, fn: Optional[Callable[[], float]] = None, **labels):
        metric = self._get_or_create(Counter, name, labels)
        if fn is not None and metric is not NULL_METRIC:
            metric.set_function(fn)
        return metric

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None, **labels):
        metric = self._get_or_create(Gauge, name, labels)
        if fn is not None and metric is not NULL_METRIC:
            metric.set_function(fn)
        return metric

    def histogram(self, name: str, **labels):
        return self._get_or_create(Histogram, name, labels)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, name: str, **labels) -> Optional[Metric]:
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        metric = self.get(name, **labels)
        return metric.value if metric is not None else default

    def find(self, name: Optional[str] = None, **labels) -> Iterator[Metric]:
        """All metrics matching ``name`` (if given) and the label subset."""
        items = labels.items()
        for metric in self._metrics.values():
            if name is not None and metric.name != name:
                continue
            if all(metric.labels.get(k) == v for k, v in items):
                yield metric

    def sum_values(self, name: str, **labels) -> float:
        """Aggregate ``value`` across every series of ``name`` matching
        the label subset (e.g. total drops over all links)."""
        return sum(m.value for m in self.find(name, **labels))

    def collect(self) -> List[Dict[str, Any]]:
        """Snapshot rows for every metric, sorted by (name, labels) so
        exports are byte-stable for a given set of instruments."""
        rows = [m.snapshot() for m in self._metrics.values()]
        rows.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state} metrics={len(self._metrics)}>"
