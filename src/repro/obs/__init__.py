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
* :mod:`repro.obs.sampler` — :class:`PeriodicSampler`, sim-clock
  snapshots of metrics into time series without perturbing event order.
* :mod:`repro.obs.export` — deterministic JSONL/series-CSV exporters
  and the flight record stream (:class:`FlightStream`, JSONL) with its
  Perfetto/Chrome-trace view (:func:`perfetto_events`).
* :mod:`repro.obs.flight` — slowest-N latency decomposition of a
  Table-4/5 ping run, and the comparison of two runs' stage
  decompositions (the ``flight`` verb).
* :mod:`repro.obs.routing` — :class:`RoutingObserver` control-plane
  timelines and the :class:`ConvergenceTracker` stitching fault
  injection -> first reroute -> route-stable with blackhole/micro-loop
  windows.
* :mod:`repro.obs.report` — :class:`ExperimentReport`, the
  deterministic Markdown + JSON compiler over one run's metrics,
  samplers, spans, and routing timelines.
* :mod:`repro.obs.live` — :class:`LiveMonitor`, the streaming
  telemetry bus for runs *while they execute*: a deterministic JSONL
  feed, a wall-clock TTY status line, and the :class:`Watchdog` layer
  (stall / livelock / rate alarms).
* :mod:`repro.obs.archive` — :class:`RunArchive`, the per-run manifest
  (seed, config signature, commit, content hash per artifact) every
  artifact writer registers into; :func:`attach_from_env` attaches one
  (``REPRO_RUN_ARCHIVE``) and a live feed (``REPRO_LIVE_FEED``) through
  ``Experiment.run``/``VINI.run`` with zero wiring.
* :mod:`repro.obs.query` — the cross-run analysis engine: lazy
  :class:`Table` streams over every artifact kind, archive-vs-archive
  first-divergence diffing, and the fault -> episode -> flights causal
  "explain" chain.
* :mod:`repro.obs.fig8` — the one Fig-8 observatory: the Section 5.2
  failover with every collector above installed, landed as one archive.

``python -m repro.obs <verb>`` (``fig8``, ``ls``, ``q``, ``diff``,
``explain``, ``perfetto``, ``flight``) is the one CLI over all of it.
*Where did the wall-clock go* is not answered here: that is the
performance ledger's traced round (``make ledger``).

Nothing imported here imports :mod:`repro.sim` at module level: the
engine imports the registry and the null flight recorder, so the
dependency must stay one-way. :mod:`repro.obs.query`,
:mod:`repro.obs.fig8` and the CLI sit above the engine and are
therefore not imported from this file.
"""

from repro.obs.archive import (
    RunArchive,
    attach_from_env,
    config_signature,
    experiment_signature,
    load_manifest,
    note_artifact,
    resolve_artifact,
    sha256_file,
)
from repro.obs.export import (
    FlightStream,
    detect_commit,
    export_jsonl,
    export_perfetto,
    export_series_csv,
    flight_rows,
    perfetto_events,
    registry_jsonl,
)
from repro.obs.live import (
    Alarm,
    JsonlFeed,
    LiveMonitor,
    LivelockWatchdog,
    RateWatchdog,
    StallWatchdog,
    Watchdog,
)
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
    RoutingObserver,
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
    "Alarm",
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
    "JsonlFeed",
    "LiveMonitor",
    "LivelockWatchdog",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_RECORDER",
    "NullFlightRecorder",
    "PeriodicSampler",
    "RateWatchdog",
    "RoutingObserver",
    "RunArchive",
    "Span",
    "SpanContext",
    "StallWatchdog",
    "Watchdog",
    "attach_from_env",
    "build_report",
    "config_signature",
    "detect_commit",
    "episodes_from_trace",
    "experiment_signature",
    "export_jsonl",
    "export_perfetto",
    "export_series_csv",
    "flight_rows",
    "load_manifest",
    "log_buckets",
    "note_artifact",
    "perfetto_events",
    "registry_jsonl",
    "resolve_artifact",
    "sha256_file",
]
