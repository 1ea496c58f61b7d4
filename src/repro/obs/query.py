"""Cross-run analysis: lazy queries over run archives, first-divergence
diffing, and a causal "explain" chain.

The repo's runs emit deterministic artifacts (the JSONL trace, flight
JSONL, sampler CSV, live feeds, experiment reports) indexed by
:mod:`repro.obs.archive` manifests. This module is the read side:

* :class:`Table` — a lazy relational view over any artifact: rows are
  flat dicts streamed straight off disk (peak memory is one row for
  every streaming reader), with ``where``/``span``/``select``/
  ``window``/``agg`` combinators.
* :func:`diff_archives` / :func:`diff_tables` — align two runs record
  by record on their shared (sim-time, event-index) order and localize
  the *first divergent record*: artifact, event index, sim-time, kind,
  component, field, both values. Artifacts whose content hashes agree
  are skipped without opening them, so a same-seed diff is a handful
  of hash comparisons.
* :func:`explain_archive` — stitch the causal chain a divergence (or a
  plain run) lives in: fault records -> the convergence episodes they
  trigger -> the blackhole windows and affected flights inside each
  episode.

``python -m repro.obs {ls,q,diff,explain,perfetto}`` is the CLI over
these; its output is JSON with sorted keys, so same-seed invocations
are byte-identical (test-enforced).

All of it is read-only over artifacts on disk; nothing here touches a
live simulator. A file that does not decode raises ``ValueError``
naming the file and the line, never a bare ``json`` traceback.
"""

from __future__ import annotations

import csv
import json
import os
from itertools import zip_longest
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.archive import (
    artifact_kind,
    load_manifest,
    resolve_artifact,
    sha256_file,
)
from repro.obs.export import SERIES_HEADER
from repro.sim.trace import TraceRecord

__all__ = [
    "ArchiveReader",
    "Divergence",
    "Table",
    "diff_archives",
    "diff_tables",
    "explain_archive",
    "flatten",
    "open_artifact",
]

Row = Dict[str, Any]

#: Row columns tried, in order, as the "component" of a divergence.
_COMPONENT_COLS = ("component", "node", "router", "key", "name")


def flatten(obj: Any, prefix: str = "") -> Row:
    """Flatten nested dicts into dotted keys; everything else is a
    leaf. ``{"a": {"b": 1}} -> {"a.b": 1}``."""
    out: Row = {}
    if isinstance(obj, dict):
        for key in obj:
            sub = prefix + str(key)
            value = obj[key]
            if isinstance(value, dict):
                out.update(flatten(value, sub + "."))
            else:
                out[sub] = value
    else:
        out[prefix.rstrip(".")] = obj
    return out


# ----------------------------------------------------------------------
# Table: a lazy stream of rows with relational combinators
# ----------------------------------------------------------------------
class Table:
    """A re-iterable, lazy stream of flat dict rows.

    ``source`` is a zero-argument callable returning a fresh iterator,
    so every combinator builds a new :class:`Table` without reading
    anything; rows materialize only when the result is iterated (and
    one at a time, for every file-backed reader).
    """

    def __init__(self, source: Callable[[], Iterator[Row]],
                 name: str = "table"):
        self._source = source
        self.name = name

    def __iter__(self) -> Iterator[Row]:
        return self._source()

    # -- combinators ----------------------------------------------------
    def where(self, **match: Any) -> "Table":
        """Rows whose columns equal every ``match`` value."""
        def gen():
            items = list(match.items())
            for row in self._source():
                if all(row.get(k) == v for k, v in items):
                    yield row
        return Table(gen, self.name)

    def span(self, t0: Optional[float] = None,
             t1: Optional[float] = None) -> "Table":
        """Rows whose sim-time ``t`` lies in the window ``[t0, t1)``.
        Rows without a time pass only an unbounded window."""
        def gen():
            for row in self._source():
                t = row.get("t")
                if t is None:
                    if t0 is None and t1 is None:
                        yield row
                    continue
                if (t0 is None or t >= t0) and (t1 is None or t < t1):
                    yield row
        return Table(gen, self.name)

    def select(self, *columns: str) -> "Table":
        """Project each row to ``columns`` (absent columns dropped)."""
        def gen():
            for row in self._source():
                yield {col: row[col] for col in columns if col in row}
        return Table(gen, self.name)

    def window(self, width: float) -> "Table":
        """Add a ``bucket`` column: the start of the ``width``-wide
        sim-time bucket the row falls in (rows without ``t`` get
        ``None``). Feed the bucket to :meth:`agg`'s ``by`` for
        windowed aggregates."""
        if width <= 0:
            raise ValueError(f"window width must be positive, got {width!r}")
        def gen():
            for row in self._source():
                t = row.get("t")
                bucket = None if t is None else int(t / width) * width
                yield dict(row, bucket=bucket)
        return Table(gen, self.name)

    def head(self, n: int) -> "Table":
        """The first ``n`` rows."""
        if n < 0:
            raise ValueError(f"row limit must not be negative, got {n!r}")
        def gen():
            for i, row in enumerate(self._source()):
                if i >= n:
                    return
                yield row
        return Table(gen, self.name)

    def agg(self, spec: Sequence[Tuple[str, Optional[str]]],
            by: Sequence[str] = ()) -> List[Row]:
        """Aggregate the stream in one pass.

        ``spec`` is ``[(op, column), ...]`` with ops ``count`` (column
        ignored), ``sum``, ``mean``, ``min``, ``max``. Returns one row
        per distinct ``by`` group (sorted by group key), holding the
        group columns plus ``op(column)`` keys. Only the group table
        is held in memory, never the rows.
        """
        for op, col in spec:
            if op not in _ACCS:
                raise ValueError(f"unknown aggregate {op!r}")
            if op != "count" and not col:
                raise ValueError(
                    f"aggregate {op!r} needs a column: {op}:COL")
        groups: Dict[tuple, Dict[str, Any]] = {}
        for row in self._source():
            key = tuple(repr(row.get(col)) for col in by)
            state = groups.get(key)
            if state is None:
                state = groups[key] = {col: row.get(col) for col in by}
                state["__accs"] = [_ACCS[op](col) for op, col in spec]
            for acc in state["__accs"]:
                acc.add(row)
        out = []
        for key in sorted(groups):
            state = groups[key]
            accs = state.pop("__accs")
            for acc in accs:
                state[acc.label] = acc.result()
            out.append(state)
        return out


class _Acc:
    def __init__(self, op: str, col: Optional[str]):
        self.op, self.col = op, col
        self.n, self.total = 0, 0.0
        self.best: Any = None

    @property
    def label(self) -> str:
        return self.op if self.col is None else f"{self.op}({self.col})"

    def add(self, row: Row) -> None:
        if self.op == "count":
            self.n += 1
            return
        value = row.get(self.col)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        self.n += 1
        if self.op in ("sum", "mean"):
            self.total += value
        elif self.op == "min":
            self.best = value if self.best is None else min(self.best, value)
        else:
            self.best = value if self.best is None else max(self.best, value)

    def result(self) -> Any:
        if self.op == "count":
            return self.n
        if self.op == "sum":
            return self.total
        if self.op == "mean":
            return self.total / self.n if self.n else None
        return self.best


_ACCS = {
    op: (lambda op: (lambda col: _Acc(op, col)))(op)
    for op in ("count", "sum", "mean", "min", "max")
}


# ----------------------------------------------------------------------
# Readers: one lazy row stream per artifact kind
# ----------------------------------------------------------------------
def _jsonl(path: str) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """The line number and JSON object of each non-blank line of ``path``."""
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{number}: not a JSON line ({exc})") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            yield number, obj


def read_trace_jsonl(path: str) -> Iterator[Row]:
    """Trace rows, ``{"t", "kind", <fields>}``: every line after the
    header of a :meth:`~repro.sim.trace.TraceCollector.spill_to` file."""
    for number, obj in _jsonl(path):
        if "t" not in obj or "kind" not in obj:
            if number == 1 and "schema" in obj:
                continue
            raise ValueError(f"{path}:{number}: trace record without "
                             f"'t' or 'kind'")
        yield obj


def read_live_feed(path: str) -> Iterator[Row]:
    """Live feed rows: the header line, then one row per snapshot with
    probes flattened to ``probes.<key>`` columns."""
    for _, obj in _jsonl(path):
        if "schema" in obj:
            yield dict(flatten(obj), kind="header", t=None)
        else:
            row = {"t": obj.get("t"), "kind": "snapshot"}
            for key, value in obj.items():
                if key == "probes":
                    row.update(flatten(value, "probes."))
                elif key != "t":
                    row[key] = value
            yield row


def _maybe_num(text: str) -> Any:
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def read_sampler_csv(path: str) -> Iterator[Row]:
    """Long-form sampler series rows (``key,time,value,count,sum``)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != SERIES_HEADER:
            raise ValueError(f"{path!r} is not a sampler series CSV "
                             f"(header {header!r})")
        for row in reader:
            if len(row) != len(SERIES_HEADER):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected "
                    f"{len(SERIES_HEADER)} fields, got {len(row)}")
            key, t, value, count, total = row
            yield {"t": _maybe_num(t), "kind": "sample", "key": key,
                   "value": _maybe_num(value), "count": _maybe_num(count),
                   "sum": _maybe_num(total)}


def read_flight_jsonl(path: str) -> Iterator[Row]:
    """FlightStream JSONL rows (flight/control), timed by ``start``."""
    for _, obj in _jsonl(path):
        row = {"t": obj.get("start")}
        row.update(obj)
        yield row


def _json_leaves(obj: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_leaves(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _json_leaves(value, f"{prefix}{index}.")
    else:
        yield prefix[:-1], obj


def _json_doc(path: str) -> Any:
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ValueError(
                f"{path}: not a JSON document ({exc})") from exc


def read_json_leaves(path: str) -> Iterator[Row]:
    """One row per leaf of a JSON document, keyed by dotted path (list
    indices included), in sorted order — so a generic row diff
    localizes the first differing leaf."""
    for key, value in _json_leaves(_json_doc(path)):
        yield {"t": None, "kind": "leaf", "key": key, "value": value}


def read_text_lines(path: str) -> Iterator[Row]:
    with open(path) as handle:
        for index, line in enumerate(handle):
            yield {"t": None, "kind": "line", "i": index,
                   "line": line.rstrip("\n")}


#: Artifact kind (as recorded in manifests) -> reader.
KIND_READERS: Dict[str, Callable[[str], Iterator[Row]]] = {
    "trace_jsonl": read_trace_jsonl,
    "live_feed": read_live_feed,
    "sampler_csv": read_sampler_csv,
    "flight_jsonl": read_flight_jsonl,
    "report_json": read_json_leaves,
    "report_md": read_text_lines,
    "json": read_json_leaves,
    "text": read_text_lines,
}


def open_artifact(path: str, kind: Optional[str] = None) -> Table:
    """A :class:`Table` over one artifact file; ``kind`` as recorded in
    a manifest, or read off the file's bytes."""
    resolved = kind or artifact_kind(path)
    reader = KIND_READERS.get(resolved, read_text_lines)
    return Table(lambda: reader(path), name=os.path.basename(path))


class ArchiveReader:
    """Read-side wrapper over one run archive."""

    def __init__(self, path: str):
        self.manifest = load_manifest(path)

    @property
    def name(self) -> str:
        return self.manifest["name"]

    @property
    def meta(self) -> Dict[str, Any]:
        return self.manifest["meta"]

    @property
    def artifacts(self) -> Dict[str, Any]:
        return self.manifest["artifacts"]

    def names(self, kind: Optional[str] = None) -> List[str]:
        return sorted(
            name for name, entry in self.artifacts.items()
            if kind is None or entry["kind"] == kind
        )

    def path(self, name: str) -> str:
        return resolve_artifact(self.manifest, name)

    def table(self, name: str, kinds=None, fields=None,
              t0=None, t1=None) -> Table:
        """A :class:`Table` over artifact ``name``: rows of ``kinds``
        (a name or names) in the window ``[t0, t1)``, projected to
        ``fields`` plus ``t`` and ``kind``."""
        table = open_artifact(self.path(name), self.artifacts[name]["kind"])
        if kinds is not None:
            want = frozenset((kinds,) if isinstance(kinds, str) else kinds)
            base = table
            table = Table(lambda: (r for r in base if r.get("kind") in want),
                          name=name)
        if t0 is not None or t1 is not None:
            table = table.span(t0, t1)
        if fields is not None:
            table = table.select(*fields, "t", "kind")
        return table


# ----------------------------------------------------------------------
# Diff engine
# ----------------------------------------------------------------------
class Divergence:
    """One localized difference between two aligned runs."""

    __slots__ = ("artifact", "index", "time", "kind", "component",
                 "field", "fields", "a", "b")

    def __init__(self, artifact: str, index: int, time: Optional[float],
                 kind: Optional[str], component: str, field: str,
                 fields: Sequence[str], a: Any, b: Any):
        self.artifact = artifact
        self.index = index
        self.time = time
        self.kind = kind
        self.component = component
        self.field = field
        self.fields = list(fields)
        self.a = a
        self.b = b

    def as_dict(self) -> Dict[str, Any]:
        return {
            "artifact": self.artifact,
            "index": self.index,
            "time": self.time,
            "kind": self.kind,
            "component": self.component,
            "field": self.field,
            "fields": self.fields,
            "a": self.a,
            "b": self.b,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Divergence {self.artifact}[{self.index}] "
                f"{self.field}: {self.a!r} != {self.b!r}>")


def _component_of(row: Optional[Row]) -> str:
    if row:
        for col in _COMPONENT_COLS:
            value = row.get(col)
            if value is not None:
                return str(value)
    return ""


def _row_key(row: Optional[Row]) -> Tuple[Optional[float], Optional[str]]:
    if not row:
        return (None, None)
    return (row.get("t"), row.get("kind"))


def diff_tables(table_a: Iterable[Row], table_b: Iterable[Row],
                artifact: str = "table",
                max_divergences: int = 1) -> List[Divergence]:
    """Stream both row sequences in parallel and localize divergences.

    Rows are aligned positionally — the repo's artifacts are written in
    deterministic (sim-time, event-seq) order, so the event *index* is
    the alignment key and the first mismatching row is the first
    divergent record. Each divergence reports the index, the record's
    sim-time/kind/component, and the first differing field (all
    differing fields ride along in ``fields``). A length mismatch
    reports the pseudo-field ``<record-count>`` at the first absent
    index. Stops after ``max_divergences``; memory stays at two rows.
    """
    out: List[Divergence] = []
    for index, (row_a, row_b) in enumerate(zip_longest(table_a, table_b)):
        if row_a == row_b:
            continue
        time_a, kind_a = _row_key(row_a)
        time_b, kind_b = _row_key(row_b)
        if row_a is None or row_b is None:
            out.append(Divergence(
                artifact, index, time_a if row_b is None else time_b,
                kind_a if row_b is None else kind_b,
                _component_of(row_a or row_b), "<record-count>",
                ["<record-count>"],
                "<absent>" if row_a is None else row_a,
                "<absent>" if row_b is None else row_b,
            ))
        else:
            differing = sorted(
                key for key in set(row_a) | set(row_b)
                if row_a.get(key, _MISSING) != row_b.get(key, _MISSING)
            )
            field = differing[0] if differing else "<row>"
            out.append(Divergence(
                artifact, index,
                time_a if time_a == time_b else (time_a, time_b),
                kind_a if kind_a == kind_b else f"{kind_a}!={kind_b}",
                _component_of(row_a) or _component_of(row_b),
                field, differing,
                row_a.get(field, "<absent>"), row_b.get(field, "<absent>"),
            ))
        if len(out) >= max_divergences:
            break
    return out


class _Missing:
    def __repr__(self):
        return "<absent>"


_MISSING = _Missing()


def diff_archives(path_a: str, path_b: str, hash_only: bool = False,
                  max_per_artifact: int = 1) -> Dict[str, Any]:
    """Compare two run archives and localize their first divergences.

    Artifacts present in both archives are compared content-hash-first
    (hashes recomputed from the files, so a stale manifest cannot mask
    a difference); only artifacts whose bytes differ are opened and
    row-diffed. ``hash_only`` trusts the recorded manifest hashes and
    skips row localization — the cheap mode for "are these runs the
    same?" gating. Returns a JSON-ready report::

        {"a", "b", "meta_diffs", "only_a", "only_b",
         "identical": [names...], "divergences": [Divergence dicts]}
    """
    reader_a = ArchiveReader(path_a)
    reader_b = ArchiveReader(path_b)
    meta_a, meta_b = reader_a.meta, reader_b.meta
    meta_diffs = {
        key: [meta_a.get(key), meta_b.get(key)]
        for key in sorted(set(meta_a) | set(meta_b))
        if meta_a.get(key) != meta_b.get(key)
    }
    names_a = set(reader_a.artifacts)
    names_b = set(reader_b.artifacts)
    report: Dict[str, Any] = {
        "a": reader_a.manifest["_path"],
        "b": reader_b.manifest["_path"],
        "meta_diffs": meta_diffs,
        "only_a": sorted(names_a - names_b),
        "only_b": sorted(names_b - names_a),
        "identical": [],
        "divergences": [],
    }
    for name in sorted(names_a & names_b):
        entry_a = reader_a.artifacts[name]
        entry_b = reader_b.artifacts[name]
        file_a, file_b = reader_a.path(name), reader_b.path(name)
        if hash_only:
            same = entry_a["sha256"] == entry_b["sha256"]
        else:
            same = sha256_file(file_a) == sha256_file(file_b)
        if same:
            report["identical"].append(name)
            continue
        if hash_only:
            report["divergences"].append(Divergence(
                name, -1, None, entry_a["kind"], "", "<sha256>",
                ["<sha256>"], entry_a["sha256"], entry_b["sha256"],
            ).as_dict())
            continue
        divergences = diff_tables(
            reader_a.table(name), reader_b.table(name),
            artifact=name, max_divergences=max_per_artifact,
        )
        if not divergences:
            # Bytes differ but every decoded row agrees (e.g. key
            # order): surface it rather than calling the files equal.
            divergences = [Divergence(
                name, -1, None, entry_a["kind"], "", "<bytes>",
                ["<bytes>"], sha256_file(file_a), sha256_file(file_b),
            )]
        report["divergences"].extend(d.as_dict() for d in divergences)
    return report


# ----------------------------------------------------------------------
# Explain: the causal chain around a run (or a divergence)
# ----------------------------------------------------------------------
def explain_archive(path: str, at: Optional[float] = None) -> Dict[str, Any]:
    """Stitch one archive's causal chain: each ``fault`` record, the
    convergence episode it triggers (re-derived from the traced
    ``rib_change`` churn), and the blackhole windows plus affected
    flights inside that episode.

    ``at`` anchors the chain at a sim-time (e.g. a divergence's time):
    only episodes whose window contains, or most closely precedes,
    ``at`` are kept. Deterministic: the chain is rebuilt from on-disk
    artifacts only.
    """
    from repro.obs.routing import episodes_from_trace

    reader = ArchiveReader(path)
    records: List[TraceRecord] = []
    for name in reader.names("trace_jsonl"):
        for row in reader.table(name, kinds=("fault", "rib_change")):
            records.append(TraceRecord(row.pop("t"), row.pop("kind"), row))
    records.sort(key=lambda r: r.time)
    episodes = episodes_from_trace(records)
    faults = [r for r in records if r.kind == "fault"]

    flights: List[Row] = []
    for name in reader.names("flight_jsonl"):
        flights.extend(r for r in read_flight_jsonl(reader.path(name))
                       if r.get("kind") == "flight")

    blackholes: List[Dict[str, Any]] = []
    for name in reader.names("report_json"):
        doc = _json_doc(reader.path(name))
        for pair, windows in sorted(
                doc.get("convergence", {}).get("paths", {}).items()):
            for window in windows:
                if window.get("status") == "blackhole":
                    blackholes.append(dict(window, pair=pair))

    chain: List[Dict[str, Any]] = []
    for fault, episode in zip(faults, episodes):
        start = episode.start
        end = episode.last_change if episode.last_change is not None \
            else start
        overlapping = [
            f for f in flights
            if f.get("start") is not None and f.get("end") is not None
            and f["start"] < end and f["end"] > start
        ]
        dropped = [f for f in overlapping
                   if str(f.get("status", "")).startswith("dropped")]
        link = {
            "fault": dict(fault.fields, time=fault.time),
            "episode": {
                "trigger": episode.trigger,
                "start": start,
                "first_change": episode.first_change,
                "last_change": episode.last_change,
                "detection_s": episode.detection_s,
                "convergence_s": episode.convergence_s,
                "changes": episode.changes,
                "routers": len(episode.routers),
            },
            "blackholes": [w for w in blackholes
                           if w["start"] < end + 1e-9
                           and w["end"] > start - 1e-9],
            "flights": {
                "overlapping": len(overlapping),
                "dropped": len(dropped),
                "dropped_traces": sorted(
                    f.get("trace") for f in dropped)[:5],
            },
        }
        chain.append(link)

    if at is not None and chain:
        def _relevant(link):
            episode = link["episode"]
            end = episode["last_change"] if episode["last_change"] \
                is not None else episode["start"]
            return episode["start"] <= at <= end
        containing = [link for link in chain if _relevant(link)]
        if containing:
            chain = containing
        else:
            preceding = [link for link in chain
                         if link["episode"]["start"] <= at]
            chain = [preceding[-1]] if preceding else chain[:1]

    return {
        "archive": reader.name,
        "path": reader.manifest["_path"],
        "meta": {k: reader.meta.get(k)
                 for k in ("seed", "config_signature", "sim_time", "events")},
        "at": at,
        "faults": len(faults),
        "episodes": len(episodes),
        "chain": chain,
    }
