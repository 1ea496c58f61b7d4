"""Exporters: sampler series to CSV, and the flight record stream and
its Perfetto view.

All exports are deterministic for a given run: JSON objects are
serialized with sorted keys, and floats go through ``repr`` (shortest
round-trip) — so the same seed produces a byte-identical file, which
the determinism tests assert.

Flights have one on-disk shape — the JSONL records of
:func:`flight_row` / :func:`control_row`, streamed by
:class:`FlightStream` — and Perfetto is a view of it:
:func:`perfetto_events` maps records to Chrome trace events one row at
a time, whether the rows come from a live recorder
(:func:`flight_rows`) or from a ``flights.jsonl`` read back.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Dict, Iterable, Iterator, List, Optional

#: Header of the long-form series CSV (:func:`export_series_csv`).
SERIES_HEADER = ["key", "time", "value", "count", "sum"]


def export_series_csv(sampler, path: str) -> str:
    """Write a sampler's time series as long-form CSV rows
    ``key,time,value`` (histogram probes fill ``count``/``sum``
    instead of ``value``), probe by probe in watch order."""
    _ensure_parent(path)
    with open(path, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SERIES_HEADER)
        for key in sampler.keys():
            for t, value in sampler.series(key):
                if isinstance(value, tuple) and len(value) == 2:
                    writer.writerow([key, repr(t), "", value[0], repr(value[1])])
                else:
                    writer.writerow([key, repr(t), repr(value), "", ""])
    return path


# ----------------------------------------------------------------------
# Flight records, and their Perfetto / chrome://tracing view
# ----------------------------------------------------------------------
def flight_row(flight) -> Dict[str, Any]:
    """One completed flight as its record (stages inline)."""
    return {
        "kind": "flight", "trace": flight.trace_id,
        "name": flight.name, "node": flight.node,
        "start": flight.start, "end": flight.end,
        "status": flight.status,
        "stages": [[s.name, s.node, s.start, s.end] for s in flight.spans],
    }


def control_row(span) -> Dict[str, Any]:
    """One completed control-plane span as its record."""
    return {
        "kind": "control", "name": span.name, "node": span.node,
        "trace": span.trace_id, "span": span.span_id,
        "parent": span.parent_id, "start": span.start, "end": span.end,
    }


def flight_rows(recorder) -> Iterator[Dict[str, Any]]:
    """A recorder's retained flights, then its control-plane spans, as
    records: what a :class:`FlightStream` would have written for them."""
    for flight in recorder.flights():
        yield flight_row(flight)
    for span in recorder.control_spans():
        yield control_row(span)


def _us(t: float) -> float:
    """Sim seconds -> trace microseconds (ns precision, stable repr)."""
    return round(t * 1e6, 3)


def perfetto_events(rows: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """Flight records as Chrome trace events, one row at a time.

    Layout: one trace "process" per location (node or link name; pids
    numbered by first appearance, each declared by an ``M`` event before
    its first use), one track (tid) per trace id, complete (``X``)
    events for flights, stages and control spans. A pure function of
    the row stream, so same-seed records render byte-identically.
    """
    pids: Dict[str, int] = {}

    def complete(cat, name, node, trace, start, end, **args):
        if node not in pids:
            pids[node] = len(pids)
            yield {
                "ph": "M", "name": "process_name", "pid": pids[node],
                "tid": 0, "args": {"name": node or "(global)"},
            }
        yield {
            "ph": "X", "cat": cat, "name": name, "pid": pids[node],
            "tid": trace, "ts": _us(start), "dur": _us(end - start),
            "args": dict(args, trace=trace),
        }

    for row in rows:
        trace = row["trace"]
        if row["kind"] == "flight":
            yield from complete("flight", row["name"], row["node"], trace,
                                row["start"], row["end"],
                                status=row["status"])
            for name, node, start, end in row["stages"]:
                yield from complete("stage", name, node, trace, start, end)
        else:
            yield from complete("control", row["name"], row["node"], trace,
                                row["start"], row["end"],
                                span=row["span"], parent=row["parent"])


def export_perfetto(rows: Iterable[Dict[str, Any]], path: str) -> str:
    """Write flight records as a Perfetto / Chrome-trace JSON document
    (load it at https://ui.perfetto.dev), one event per line; memory
    stays at one row however long the stream is."""
    _ensure_parent(path)
    with open(path, "w") as handle:
        handle.write('{"displayTimeUnit":"ms","traceEvents":[\n')
        separator = ""
        for event in perfetto_events(rows):
            handle.write(separator + json.dumps(
                event, sort_keys=True, separators=(",", ":")))
            separator = ",\n"
        handle.write("\n]}\n")
    return path


class FlightStream:
    """Streaming flight writer with a hard memory ceiling.

    A recorder *retains* a bounded number of flights; a ``FlightStream``
    receives every completed flight the moment
    ``FlightRecorder._finish`` lets go of it, buffers at most
    ``chunk_flights`` of them, and appends each full chunk to ``path``
    — so the file is *complete* while in-memory state never exceeds one
    chunk, regardless of how few flights the recorder keeps. Attach via
    ``FlightRecorder(sim, stream=...)`` and finalize with
    ``recorder.close_stream()``.

    The file is JSONL: one sorted-keys :func:`flight_row` per flight in
    completion order, then one :func:`control_row` per control span.
    """

    # ``fmt`` is vestigial: benchmarks/ledger/scenarios.py passes
    # fmt="jsonl" and may not be edited outside a benchmark PR. When
    # that call site drops the argument, drop the parameter.
    def __init__(self, path: str, fmt: str = "jsonl",
                 chunk_flights: int = 256):
        if fmt != "jsonl":
            raise ValueError(
                f"FlightStream writes JSONL only, got fmt={fmt!r}; render "
                "the file with `python -m repro.obs perfetto`"
            )
        if chunk_flights <= 0:
            raise ValueError(
                f"chunk_flights must be positive, got {chunk_flights!r}"
            )
        self.path = path
        self.chunk_flights = chunk_flights
        self._buffer: List[Any] = []
        self._handle = None
        self.closed = False

    # ------------------------------------------------------------------
    def add(self, flight) -> None:
        """Buffer one completed flight; flushes a chunk when full."""
        if self.closed:
            raise RuntimeError(f"stream {self.path!r} already closed")
        self._buffer.append(flight)
        if len(self._buffer) >= self.chunk_flights:
            self._flush()

    def close(self, control_spans: Iterable[Any] = ()) -> str:
        """Flush the tail chunk, append control-plane spans, and close
        the file. Idempotent; returns the path."""
        if self.closed:
            return self.path
        self._flush()
        if self._handle is None:
            self._open()  # no flights at all: still produce the file
        for span in control_spans:
            self._line(control_row(span))
        self._handle.close()
        self._handle = None
        self.closed = True
        return self.path

    # ------------------------------------------------------------------
    def _open(self) -> None:
        _ensure_parent(self.path)
        self._handle = open(self.path, "w")

    def _line(self, obj: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(obj, sort_keys=True) + "\n")

    def _flush(self) -> None:
        if not self._buffer:
            return
        if self._handle is None:
            self._open()
        for flight in self._buffer:
            self._line(flight_row(flight))
        self._buffer.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlightStream {self.path!r} buffered={len(self._buffer)}>"


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def detect_commit(start_dir: Optional[str] = None) -> Optional[str]:
    """Short commit hash of the repo containing ``start_dir`` (or the
    CWD), read straight from ``.git`` — no subprocess."""
    directory = os.path.abspath(start_dir or os.getcwd())
    while True:
        git_dir = os.path.join(directory, ".git")
        if os.path.isdir(git_dir):
            break
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(git_dir, *ref[5:].split("/"))
            if os.path.exists(ref_path):
                with open(ref_path) as handle:
                    return handle.read().strip()[:12]
            packed = os.path.join(git_dir, "packed-refs")
            with open(packed) as handle:
                for line in handle:
                    if line.endswith(ref[5:] + "\n"):
                        return line.split()[0][:12]
            return None
        return ref[:12]
    except OSError:
        return None
