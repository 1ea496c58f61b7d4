"""Unified experiment reports.

One run produces many observation streams: the metrics registry, any
periodic samplers, the flight recorder's spans, the routing timelines,
and the fault schedule itself. This module compiles them into a single
self-describing artifact — Markdown for humans, JSON for tooling —
so two runs (two seeds, two configs, two commits) can be compared as
documents instead of by re-running ad-hoc scans.

Determinism is the contract: a report contains only simulation state
(no wall-clock timestamps, no environment probes), dictionaries are
emitted in sorted order, and floats are printed with fixed formatting,
so a fixed-seed run yields byte-identical Markdown and JSON on every
invocation.

``python -m repro.obs fig8 OUT`` (:mod:`repro.obs.fig8`) runs the Fig-8
setting with every collector installed and lands ``report.md`` +
``report.json`` in the archive it writes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import _ensure_parent

#: Slowest flights broken down in the report.
SLOWEST_FLIGHTS = 5


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------
def _num(value: Any) -> str:
    """Fixed, locale-free rendering for table cells."""
    if value is None:
        return "-"
    if isinstance(value, float):
        text = f"{value:.6f}".rstrip("0").rstrip(".")
        return text if text else "0"
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_num(cell) for cell in row) + " |")
    return lines


def _labels_str(labels: Dict[str, Any]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------
def build_report(
    sim,
    name: str = "experiment",
    meta: Optional[Dict[str, Any]] = None,
    samplers: Sequence[Any] = (),
    recorder=None,
    observer=None,
    tracker=None,
    traffic=None,
    monitor=None,
) -> "ExperimentReport":
    """Compile one run's observation streams into a report.

    ``samplers`` are :class:`~repro.obs.sampler.PeriodicSampler`
    instances; ``recorder`` a :class:`~repro.obs.spans.FlightRecorder`;
    ``observer``/``tracker`` the :mod:`repro.obs.routing` collectors;
    ``traffic`` a :class:`~repro.traffic.FluidTrafficPlane`;
    ``monitor`` a :class:`~repro.obs.live.LiveMonitor` (its section is
    its name, snapshot interval and snapshot count).
    All are optional — absent sections are omitted.
    """
    data: Dict[str, Any] = {
        "meta": dict(meta or {}, name=name, sim_time=sim.now,
                     generator="repro.obs.report"),
        "faults": [
            dict(record.fields, time=record.time)
            for record in sim.trace.select("fault")
        ],
        "metrics": sim.metrics.collect(),
    }
    if samplers:
        section: Dict[str, Any] = {}
        for sampler in samplers:
            series = {
                key: [[t, list(v) if isinstance(v, tuple) else v]
                      for t, v in sampler.series(key)]
                for key in sorted(sampler.keys())
            }
            section[sampler.name] = {
                "interval": sampler.interval,
                "series": series,
            }
        data["samplers"] = section
    if observer is not None:
        data["routing"] = observer.as_dict()
    if tracker is not None:
        data["convergence"] = tracker.as_dict()
    if recorder is not None:
        data["flights"] = _flight_section(recorder)
    if traffic is not None:
        data["traffic"] = traffic.as_dict()
    if monitor is not None:
        data["live"] = monitor.as_dict()
    return ExperimentReport(data)


def _flight_section(recorder) -> Dict[str, Any]:
    spans: Dict[str, List[float]] = {}
    for span in recorder.control_spans():
        cell = spans.setdefault(span.name, [0, 0.0])
        cell[0] += 1
        cell[1] += span.duration
    return {
        "started": recorder.flights_started,
        "completed": recorder.flights_completed,
        "evicted": recorder.flights_evicted,
        "retained": len(recorder.flights()),
        "slowest": [
            {
                "trace_id": flight.trace_id,
                "name": flight.name,
                "node": flight.node,
                "start": flight.start,
                "status": flight.status,
                "duration": flight.duration,
                "stages": [[n, node, d]
                           for n, node, d in flight.stage_durations()],
            }
            for flight in recorder.slowest(SLOWEST_FLIGHTS)
        ],
        "control_spans": {
            name: {"count": cell[0], "total_s": cell[1]}
            for name, cell in sorted(spans.items())
        },
    }


class ExperimentReport:
    """A compiled report: ``data`` plus Markdown/JSON serializers."""

    def __init__(self, data: Dict[str, Any]):
        self.data = data

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        data = self.data
        meta = data["meta"]
        lines = [f"# Experiment report — {meta['name']}", ""]
        lines += ["## Run", ""]
        lines += _table(["key", "value"],
                        [[k, meta[k]] for k in sorted(meta)])
        lines += ["", "## Fault timeline", ""]
        if data["faults"]:
            lines += _table(
                ["t (s)", "plan", "action", "label"],
                [[f["time"], f.get("plan", "-"), f.get("action", "-"),
                  f.get("label", "-")] for f in data["faults"]],
            )
        else:
            lines.append("No faults fired.")
        if "convergence" in data:
            lines += self._convergence_md(data["convergence"])
        if "routing" in data:
            lines += self._routing_md(data["routing"])
        if "traffic" in data:
            lines += self._traffic_md(data["traffic"])
        if "live" in data:
            lines += self._live_md(data["live"])
        lines += self._metrics_md(data["metrics"])
        if "samplers" in data:
            lines += self._samplers_md(data["samplers"])
        if "flights" in data:
            lines += self._flights_md(data["flights"])
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    @staticmethod
    def _convergence_md(section: Dict[str, Any]) -> List[str]:
        lines = ["", "## Convergence episodes", ""]
        if section["episodes"]:
            lines += _table(
                ["trigger", "start", "first change", "route stable",
                 "detection (s)", "convergence (s)", "changes"],
                [[e["trigger"], e["start"], e["first_change"],
                  e["last_change"], e["detection_s"], e["convergence_s"],
                  e["changes"]] for e in section["episodes"]],
            )
        else:
            lines.append("No episodes recorded.")
        for pair in sorted(section["paths"]):
            windows = section["paths"][pair]
            lines += ["", f"### Path {pair}", ""]
            lines += _table(
                ["status", "start", "end", "duration (s)"],
                [[w["status"], w["start"], w["end"],
                  w["end"] - w["start"]] for w in windows],
            )
        return lines

    @staticmethod
    def _routing_md(section: Dict[str, Any]) -> List[str]:
        lines = ["", "## Routing timelines", ""]
        adjacency = section["adjacency"]
        lines.append(
            "%d adjacency transitions, %d SPF runs, %d BGP session "
            "transitions, %d RIB changes." % (
                len(adjacency), len(section["spf_runs"]),
                len(section["bgp_sessions"]), len(section["rib_changes"]),
            )
        )
        if adjacency:
            lines += ["", "### Adjacency transitions", ""]
            lines += _table(
                ["t (s)", "router", "neighbor", "state", "reason"],
                [[e["time"], e["router"], e["neighbor"], e["state"],
                  e.get("reason", "-")] for e in adjacency],
            )
        churn: Dict[Tuple[str, str], int] = {}
        for event in section["rib_changes"]:
            key = (event["router"], event["op"])
            churn[key] = churn.get(key, 0) + 1
        if churn:
            lines += ["", "### RIB churn (changes by router and op)", ""]
            lines += _table(
                ["router", "op", "changes"],
                [[router, op, count]
                 for (router, op), count in sorted(churn.items())],
            )
        return lines

    @staticmethod
    def _traffic_md(section: Dict[str, Any]) -> List[str]:
        flows = section["flows"]
        solver = section["solver"]
        lines = ["", "## Traffic plane", ""]
        lines.append(
            "%d fluid flows started, %d completed, %d active "
            "(peak %d); %d solver runs, %d progressive-filling "
            "iterations." % (
                flows["started"], flows["completed"], flows["active"],
                flows["peak"], solver["runs"], solver["iterations"],
            )
        )
        if section["classes"]:
            lines += ["", "### Flow classes", ""]
            lines += _table(
                ["src", "dst", "flows", "rate (b/s)", "blocked"],
                [[c["src"], c["dst"], c["flows"], c["rate_bps"],
                  c["blocked"]] for c in section["classes"]],
            )
        if section["links"]:
            lines += ["", "### Fluid link occupancy", ""]
            lines += _table(
                ["link", "sender", "fluid (Mb/s)", "util", "packets (Mb/s)"],
                [[l["link"], l["sender"], l["fluid_mbps"], l["util"],
                  l["packet_mbps"]] for l in section["links"]],
            )
        return lines

    @staticmethod
    def _live_md(section: Dict[str, Any]) -> List[str]:
        lines = ["", "## Live monitor", ""]
        lines.append(
            "%d feed snapshots every %s sim-seconds." % (
                section["snapshots"], _num(section["interval"]),
            )
        )
        return lines

    @staticmethod
    def _metrics_md(rows: List[Dict[str, Any]]) -> List[str]:
        scalars = [r for r in rows if r["type"] in ("counter", "gauge")]
        histograms = [r for r in rows if r["type"] == "histogram"]
        lines = ["", "## Metrics snapshot", ""]
        lines.append("%d series (%d scalar, %d histogram)." % (
            len(rows), len(scalars), len(histograms)))
        if scalars:
            lines += ["", "### Counters and gauges", ""]
            lines += _table(
                ["name", "labels", "value"],
                [[r["name"], _labels_str(r["labels"]), r["value"]]
                 for r in scalars],
            )
        if histograms:
            lines += ["", "### Histograms", ""]
            lines += _table(
                ["name", "labels", "count", "mean", "p50", "p95", "p99",
                 "max"],
                [[r["name"], _labels_str(r["labels"]), r["count"],
                  r["mean"], r["p50"], r["p95"], r["p99"], r["max"]]
                 for r in histograms],
            )
        return lines

    @staticmethod
    def _samplers_md(section: Dict[str, Any]) -> List[str]:
        lines = ["", "## Sampler series", ""]
        rows = []
        for name in sorted(section):
            sampler = section[name]
            for key in sorted(sampler["series"]):
                points = sampler["series"][key]
                first_t = points[0][0] if points else None
                last_t = points[-1][0] if points else None
                rows.append([name, key, sampler["interval"], len(points),
                             first_t, last_t])
        lines += _table(
            ["sampler", "probe", "interval (s)", "points", "first t",
             "last t"], rows,
        )
        lines.append("")
        lines.append("Full series are in the JSON artifact.")
        return lines

    @staticmethod
    def _flights_md(section: Dict[str, Any]) -> List[str]:
        lines = ["", "## Flight recorder", ""]
        lines.append(
            "%d flights started, %d completed, %d retained, %d evicted."
            % (section["started"], section["completed"],
               section["retained"], section["evicted"])
        )
        if section["slowest"]:
            lines += ["", "### Slowest flights", ""]
            lines += _table(
                ["flight", "from", "status", "duration (s)", "stages"],
                [[f["trace_id"], f["node"], f["status"], f["duration"],
                  "; ".join(f"{n}={_num(d)}" for n, _node, d in f["stages"])]
                 for f in section["slowest"]],
            )
        spans = section["control_spans"]
        if spans:
            lines += ["", "### Control-plane spans", ""]
            lines += _table(
                ["span", "count", "total (s)"],
                [[name, spans[name]["count"], spans[name]["total_s"]]
                 for name in sorted(spans)],
            )
        return lines

    # ------------------------------------------------------------------
    def write(self, base: str) -> Tuple[str, str]:
        """Write ``<base>.md`` and ``<base>.json``; returns the paths."""
        md_path, json_path = base + ".md", base + ".json"
        _ensure_parent(md_path)
        with open(md_path, "w") as handle:
            handle.write(self.to_markdown())
        with open(json_path, "w") as handle:
            handle.write(self.to_json())
        return md_path, json_path
