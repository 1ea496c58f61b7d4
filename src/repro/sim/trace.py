"""Measurement trace collection.

Tools (ping, iperf, tcpdump) and substrate components record timestamped
records into the simulator's :class:`TraceCollector`. Benchmarks then
query the collector to regenerate the paper's tables and figures. Live
subscribers allow tests to assert on events as they happen.

The collector sits on the per-packet hot path, so it is built for the
common cases being cheap:

* per-kind enablement is a bitmask over interned kind names — logging a
  disabled kind is one dict lookup and a bit test, and allocates no
  record;
* ``select()``/``count()`` read a per-kind index instead of scanning
  the full log;
* records are ``__slots__`` objects, not dataclass instances.

Call sites that would pay to *build* the fields of a record (string
formatting, attribute chains) can guard on :meth:`TraceCollector.wants`
first. :meth:`TraceCollector.spill_to` writes the records out as JSONL,
which :func:`repro.obs.query.read_trace_jsonl` reads back.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

#: Header line of a :meth:`TraceCollector.spill_to` file.
TRACE_SCHEMA = "repro.trace/1"

#: Kinds that intern *disabled*: per-packet record streams nobody reads
#: unless a monitor (e.g. the faults invariant checker) explicitly calls
#: ``enable()``. Everything else is enabled on first use, as before.
#: ``drop`` is the one record of a lost packet (:meth:`TraceCollector.drop`),
#: quiet so the Fig-8 failover's loss-element drops stay out of default
#: golden traces. ``rib_change`` is the per-route-churn kind the
#: convergence tracker enables; quiet for the same reason.
QUIET_KINDS = frozenset({"fwd", "drop", "rib_change"})


class TraceRecord:
    """One timestamped measurement record."""

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Optional[Dict[str, Any]] = None):
        self.time = time
        self.kind = kind
        self.fields = fields if fields is not None else {}

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceRecord)
            and self.time == other.time
            and self.kind == other.kind
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash((self.time, self.kind))

    def __repr__(self) -> str:
        return f"TraceRecord(time={self.time!r}, kind={self.kind!r}, fields={self.fields!r})"


class TraceCollector:
    """Append-only log of :class:`TraceRecord` plus pub/sub hooks."""

    def __init__(self, sim: "Simulator"):  # noqa: F821 - circular typing
        self._sim = sim
        self.records: List[TraceRecord] = []
        self._subscribers: Dict[str, List[Callable[[TraceRecord], None]]] = {}
        self._by_kind: Dict[str, List[TraceRecord]] = {}
        self._kind_bits: Dict[str, int] = {}
        self._enabled_mask = 0
        # Paths spill_to() has written a header to: later calls append.
        self._spilled: Set[str] = set()

    # ------------------------------------------------------------------
    # Kind interning and enablement
    # ------------------------------------------------------------------
    def _register(self, kind: str) -> int:
        """Intern ``kind``: assign it a bit (enabled by default, unless
        the kind is in :data:`QUIET_KINDS`) and an index list."""
        bit = 1 << len(self._kind_bits)
        self._kind_bits[kind] = bit
        if kind not in QUIET_KINDS:
            self._enabled_mask |= bit
        self._by_kind[kind] = []
        return bit

    def enable(self, *kinds: str) -> None:
        """Re-enable logging for the given kinds."""
        for kind in kinds:
            bit = self._kind_bits.get(kind) or self._register(kind)
            self._enabled_mask |= bit

    def disable(self, *kinds: str) -> None:
        """Disable logging for the given kinds: ``log()`` becomes a bit
        test, allocating nothing."""
        for kind in kinds:
            bit = self._kind_bits.get(kind) or self._register(kind)
            self._enabled_mask &= ~bit

    def wants(self, kind: str) -> bool:
        """True if a ``log(kind, ...)`` would record anything. Hot call
        sites guard on this before building expensive fields."""
        bit = self._kind_bits.get(kind)
        if bit is None:
            bit = self._register(kind)
        return bool(self._enabled_mask & bit)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def log(self, kind: str, **fields: Any) -> Optional[TraceRecord]:
        """Record an event of ``kind`` at the current simulated time."""
        bit = self._kind_bits.get(kind)
        if bit is None:
            bit = self._register(kind)
        if not (self._enabled_mask & bit):
            return None
        record = TraceRecord(self._sim.now, kind, fields)
        self.records.append(record)
        self._by_kind[kind].append(record)
        subscribers = self._subscribers.get(kind)
        if subscribers:
            for callback in subscribers:
                callback(record)
        return record

    def drop(self, packet: Any, reason: str, where: str) -> None:
        """``packet`` vanished at ``where`` (a link, a Click router or a
        node) for ``reason``. Every place that loses a packet calls this
        one site: it logs a ``drop`` record and closes the packet's flight."""
        sim = self._sim
        if self.wants("drop"):
            self.log("drop", where=where, reason=reason, uid=sim.uid(packet))
        if sim.flight.enabled:
            sim.flight.flight_drop(packet, reason, node=where)

    def subscribe(self, kind: str, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` for every future record of ``kind``."""
        self._subscribers.setdefault(kind, []).append(callback)

    def unsubscribe(self, kind: str, callback: Callable[[TraceRecord], None]) -> None:
        callbacks = self._subscribers.get(kind, [])
        if callback in callbacks:
            callbacks.remove(callback)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, kind: str, **match: Any) -> Iterator[TraceRecord]:
        """All records of ``kind`` whose fields match ``match``."""
        records = self._by_kind.get(kind)
        if not records:
            return
        if not match:
            yield from records
            return
        items = match.items()
        for record in records:
            fields = record.fields
            if all(fields.get(k) == v for k, v in items):
                yield record

    def count(self, kind: str, **match: Any) -> int:
        if not match:
            records = self._by_kind.get(kind)
            return len(records) if records else 0
        return sum(1 for _ in self.select(kind, **match))

    def clear(self) -> None:
        self.records.clear()
        for records in self._by_kind.values():
            records.clear()

    # ------------------------------------------------------------------
    # Spill: stream records to a JSONL file and drop them from memory
    # ------------------------------------------------------------------
    def spill_to(self, path: str) -> int:
        """Append every in-memory record to the JSONL file at ``path``
        and drop them from memory, so a long run can spill as it goes.

        The first call for a path truncates the file and writes the
        header ``{"schema": "repro.trace/1"}``; later calls append, so N
        calls and one produce the same bytes. Each record is one line,
        ``{"t": ..., "kind": ..., <fields>}``; a field that is not None,
        bool, int, float or str is written as its ``repr``. Returns the
        number of records written.
        """
        records = self.records
        fresh = path not in self._spilled
        with open(path, "w" if fresh else "a", encoding="utf-8") as handle:
            if fresh:
                self._spilled.add(path)
                handle.write(json.dumps({"schema": TRACE_SCHEMA}) + "\n")
            for record in records:
                row = {"t": record.time, "kind": record.kind}
                for name, value in record.fields.items():
                    if name in row:
                        raise ValueError(f"trace field name {name!r} is reserved")
                    row[name] = value if value is None or isinstance(
                        value, (str, int, float)) else repr(value)
                handle.write(json.dumps(row) + "\n")
        count = len(records)
        self.clear()
        return count

    def __len__(self) -> int:
        return len(self.records)

