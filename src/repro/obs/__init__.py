"""repro.obs — the observability subsystem.

Measurement is the product of this reproduction (every paper Table and
Figure is a number read off the running system), so it gets a
first-class layer instead of ad-hoc trace scans:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` instruments keyed
  by ``(name, labels)``; every :class:`~repro.sim.engine.Simulator`
  owns one as ``sim.metrics``.
* :mod:`repro.obs.spans` — :class:`FlightRecorder`, causal per-packet
  span tracing (``sim.flight``): why was *this* packet slow, stage by
  stage, plus the OSPF convergence span tree.
* :mod:`repro.obs.sampler` — :class:`PeriodicSampler`, the one
  periodic snapshotter: sim-clock snapshots of metrics into time series
  without perturbing event order.
* :mod:`repro.obs.export` — the deterministic series-CSV exporter
  and the flight record stream (:class:`FlightStream`, JSONL) with its
  Perfetto/Chrome-trace view (:func:`perfetto_events`).
* :mod:`repro.obs.flight` — slowest-N latency decomposition of a
  Table-4/5 ping run, and the comparison of two runs' stage
  decompositions (the ``flight`` verb).
* :mod:`repro.obs.routing` — the :class:`ConvergenceTracker` stitching
  fault injection -> first reroute -> route-stable with
  blackhole/micro-loop windows.
* :mod:`repro.obs.report` — :class:`ExperimentReport`, the
  deterministic Markdown + JSON compiler over one run's metrics,
  samplers, spans, and routing timelines (read from the trace).
* :mod:`repro.obs.live` — :class:`LiveMonitor`, the sampler that
  streams every snapshot to a deterministic JSONL feed, for runs
  *while they execute*.
* :mod:`repro.obs.archive` — :class:`RunArchive`, the per-run manifest
  (seed, config signature, commit, content hash per artifact) over
  every file under the archive's directory, each typed from its bytes.
* :mod:`repro.obs.query` — the cross-run analysis engine: lazy
  :class:`Table` streams over every artifact kind, archive-vs-archive
  first-divergence diffing, and the fault -> episode -> flights causal
  "explain" chain.
* :mod:`repro.obs.fig8` — the one Fig-8 observatory: the Section 5.2
  failover with every collector above installed, landed as one archive.

``python -m repro.obs <verb>`` (``fig8``, ``ls``, ``q``, ``diff``,
``explain``, ``perfetto``, ``flight``) is the one CLI over all of it.
Nothing here reads a host clock. *Where did the wall-clock go* is not
answered here: that is the performance ledger's traced round
(``make ledger``).

Nothing imported here imports :mod:`repro.sim` at module level: the
engine imports the registry and the null flight recorder, so the
dependency must stay one-way. :mod:`repro.obs.query`,
:mod:`repro.obs.fig8` and the CLI sit above the engine and are
therefore not imported from this file.
"""

from repro.obs.archive import (
    RunArchive,
    config_signature,
    experiment_signature,
    load_manifest,
    resolve_artifact,
    sha256_file,
)
from repro.obs.export import (
    FlightStream,
    detect_commit,
    export_perfetto,
    export_series_csv,
    flight_rows,
    perfetto_events,
)
from repro.obs.live import LiveMonitor
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    log_buckets,
)
from repro.obs.report import ExperimentReport, build_report
from repro.obs.routing import (
    ConvergenceEpisode,
    ConvergenceTracker,
    episodes_from_trace,
)
from repro.obs.sampler import PeriodicSampler
from repro.obs.spans import (
    Flight,
    FlightRecorder,
    NULL_RECORDER,
    NullFlightRecorder,
    Span,
    SpanContext,
)

__all__ = [
    "ConvergenceEpisode",
    "ConvergenceTracker",
    "Counter",
    "DEFAULT_BUCKETS",
    "ExperimentReport",
    "Flight",
    "FlightRecorder",
    "FlightStream",
    "Gauge",
    "Histogram",
    "LiveMonitor",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_RECORDER",
    "NullFlightRecorder",
    "PeriodicSampler",
    "RunArchive",
    "Span",
    "SpanContext",
    "build_report",
    "config_signature",
    "detect_commit",
    "episodes_from_trace",
    "experiment_signature",
    "export_perfetto",
    "export_series_csv",
    "flight_rows",
    "load_manifest",
    "log_buckets",
    "perfetto_events",
    "resolve_artifact",
    "sha256_file",
]
