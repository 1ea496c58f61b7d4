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
first.
"""

from __future__ import annotations

import os
import struct
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

#: Kinds that intern *disabled*: per-packet record streams nobody reads
#: unless a monitor (e.g. the faults invariant checker) explicitly calls
#: ``enable()``. Everything else is enabled on first use, as before.
#: ``loss_drop`` is the per-packet kind added with the observability
#: layer — quiet so default-run golden traces are unchanged.
#: ``rib_change`` is the per-route-churn kind the convergence tracker
#: enables; quiet for the same reason.
QUIET_KINDS = frozenset({"fwd", "loss_drop", "rib_change"})


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
        self.enabled = True
        # Per-path interning state for incremental spill_to() calls:
        # path -> (kind -> index, field name -> index).
        self._spill_tables: Dict[str, Tuple[Dict[str, int], Dict[str, int]]] = {}

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
        if not self.enabled:
            return False
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
        if not self.enabled or not (self._enabled_mask & bit):
            return None
        record = TraceRecord(self._sim.now, kind, fields)
        self.records.append(record)
        self._by_kind[kind].append(record)
        subscribers = self._subscribers.get(kind)
        if subscribers:
            for callback in subscribers:
                callback(record)
        return record

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
    # Binary spill: stream records to disk and drop them from memory
    # ------------------------------------------------------------------
    def spill_to(self, path: str) -> int:
        """Stream every in-memory record to ``path`` in the struct-packed
        binary format and drop them from memory, so runs too large to
        hold their trace in RAM can spill periodically and keep going.

        Repeated calls with the same path append — the string tables are
        carried across calls, so one call at the end and N calls along
        the way produce equivalent files. Returns the number of records
        written. :func:`read_spill` reconstructs the records exactly
        (int/float/str/bool/None fields round-trip; anything else is
        stored as its ``repr``).
        """
        records = self.records
        count = len(records)
        tables = self._spill_tables.get(path)
        fresh = tables is None
        if fresh:
            tables = ({}, {})
            self._spill_tables[path] = tables
        kinds, names = tables
        with open(path, "wb" if fresh else "ab") as handle:
            if fresh:
                handle.write(_SPILL_MAGIC)
            for record in records:
                _write_record(handle, record, kinds, names)
        self.clear()
        archive = getattr(self._sim, "_run_archive", None)
        if archive is not None:
            archive.note(path, "trace_spill")
        return count

    def __len__(self) -> int:
        return len(self.records)


# ----------------------------------------------------------------------
# Spill wire format (little-endian throughout):
#
#   magic  b"REPROTRC\x01"
#   frames:
#     0x01 define kind:  u16 index, u16 len, utf-8 bytes
#     0x02 define name:  u16 index, u16 len, utf-8 bytes (field name)
#     0x03 record:       f64 time, u16 kind index, u16 field count,
#                        then per field: u16 name index, tagged value
#   value tags:
#     0x10 int (i64)   0x11 big int (u32 len + decimal utf-8)
#     0x12 float (f64) 0x13 str (u32 len + utf-8)
#     0x14 bool (u8)   0x15 None
#     0x16 other (u32 len + repr utf-8; lossy by construction)
# ----------------------------------------------------------------------

_SPILL_MAGIC = b"REPROTRC\x01"
_S_U8 = struct.Struct("<B")
_S_U16 = struct.Struct("<H")
_S_U32 = struct.Struct("<I")
_S_I64 = struct.Struct("<q")
_S_F64 = struct.Struct("<d")
_S_REC = struct.Struct("<BdHH")  # frame tag 0x03 + time + kind + nfields
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _write_string_def(handle: BinaryIO, tag: int, index: int, text: str) -> None:
    data = text.encode("utf-8")
    handle.write(_S_U8.pack(tag) + _S_U16.pack(index) + _S_U16.pack(len(data)) + data)


def _intern(handle: BinaryIO, tag: int, table: Dict[str, int], text: str) -> int:
    index = table.get(text)
    if index is None:
        index = len(table)
        table[text] = index
        _write_string_def(handle, tag, index, text)
    return index


def _write_record(
    handle: BinaryIO,
    record: TraceRecord,
    kinds: Dict[str, int],
    names: Dict[str, int],
) -> None:
    kind_idx = _intern(handle, 0x01, kinds, record.kind)
    fields = record.fields
    parts = [_S_REC.pack(0x03, record.time, kind_idx, len(fields))]
    for name, value in fields.items():
        parts.append(_S_U16.pack(_intern(handle, 0x02, names, name)))
        if value is True or value is False:
            parts.append(_S_U8.pack(0x14) + _S_U8.pack(1 if value else 0))
        elif isinstance(value, int):
            if _I64_MIN <= value <= _I64_MAX:
                parts.append(_S_U8.pack(0x10) + _S_I64.pack(value))
            else:
                data = str(value).encode("ascii")
                parts.append(_S_U8.pack(0x11) + _S_U32.pack(len(data)) + data)
        elif isinstance(value, float):
            parts.append(_S_U8.pack(0x12) + _S_F64.pack(value))
        elif isinstance(value, str):
            data = value.encode("utf-8")
            parts.append(_S_U8.pack(0x13) + _S_U32.pack(len(data)) + data)
        elif value is None:
            parts.append(_S_U8.pack(0x15))
        else:
            data = repr(value).encode("utf-8")
            parts.append(_S_U8.pack(0x16) + _S_U32.pack(len(data)) + data)
    handle.write(b"".join(parts))


def _read_exact(handle: BinaryIO, n: int) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise ValueError(f"truncated spill file: wanted {n} bytes, got {len(data)}")
    return data


def _read_value(handle: BinaryIO) -> Any:
    tag = _read_exact(handle, 1)[0]
    if tag == 0x10:
        return _S_I64.unpack(_read_exact(handle, 8))[0]
    if tag == 0x11:
        (length,) = _S_U32.unpack(_read_exact(handle, 4))
        return int(_read_exact(handle, length).decode("ascii"))
    if tag == 0x12:
        return _S_F64.unpack(_read_exact(handle, 8))[0]
    if tag == 0x13:
        (length,) = _S_U32.unpack(_read_exact(handle, 4))
        return _read_exact(handle, length).decode("utf-8")
    if tag == 0x14:
        return bool(_read_exact(handle, 1)[0])
    if tag == 0x15:
        return None
    if tag == 0x16:
        (length,) = _S_U32.unpack(_read_exact(handle, 4))
        return _read_exact(handle, length).decode("utf-8")
    raise ValueError(f"unknown spill value tag 0x{tag:02x}")


def _skip_value(handle: BinaryIO, size: int) -> None:
    """Advance past one tagged value without decoding it.

    Length-prefixed payloads are skipped with a bounds-checked seek, so
    projection over a spill never materializes unwanted strings — but a
    truncated file still raises the same ``ValueError`` a full decode
    would.
    """
    tag = _read_exact(handle, 1)[0]
    if tag in (0x10, 0x12):
        skip = 8
    elif tag == 0x14:
        skip = 1
    elif tag == 0x15:
        return
    elif tag in (0x11, 0x13, 0x16):
        (skip,) = _S_U32.unpack(_read_exact(handle, 4))
    else:
        raise ValueError(f"unknown spill value tag 0x{tag:02x}")
    target = handle.tell() + skip
    if target > size:
        raise ValueError(
            f"truncated spill file: wanted {skip} bytes, "
            f"got {max(0, size - handle.tell())}"
        )
    handle.seek(target)


def iter_spill(
    path: str,
    kinds: Optional[Union[str, Iterable[str]]] = None,
    fields: Optional[Union[str, Iterable[str]]] = None,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> Iterator[TraceRecord]:
    """Lazily stream a :meth:`TraceCollector.spill_to` file.

    The columnar fast path for :mod:`repro.obs.query`: records are
    yielded one at a time (peak memory is one record, not the file),
    and the filters push *down* into the decoder —

    * ``kinds`` (a name or iterable of names) and the ``[t0, t1)``
      sim-time window are checked from the fixed-size record header;
      non-matching records are skipped with seeks, their field values
      never decoded;
    * ``fields`` projects each surviving record to the named columns,
      seeking past every other value.

    Truncated files raise ``ValueError`` exactly as a full decode
    would, at the same prefix of yielded records.
    """
    if isinstance(kinds, str):
        kinds = (kinds,)
    want_kinds = None if kinds is None else frozenset(kinds)
    if isinstance(fields, str):
        fields = (fields,)
    want_fields = None if fields is None else frozenset(fields)
    size = os.path.getsize(path)
    kind_table: Dict[int, str] = {}
    name_table: Dict[int, str] = {}
    with open(path, "rb") as handle:
        if _read_exact(handle, len(_SPILL_MAGIC)) != _SPILL_MAGIC:
            raise ValueError(f"{path!r} is not a trace spill file")
        while True:
            frame = handle.read(1)
            if not frame:
                break
            tag = frame[0]
            if tag in (0x01, 0x02):
                (index,) = _S_U16.unpack(_read_exact(handle, 2))
                (length,) = _S_U16.unpack(_read_exact(handle, 2))
                text = _read_exact(handle, length).decode("utf-8")
                (kind_table if tag == 0x01 else name_table)[index] = text
            elif tag == 0x03:
                time, kind_idx, nfields = struct.unpack(
                    "<dHH", _read_exact(handle, 12)
                )
                kind = kind_table[kind_idx]
                if (
                    (want_kinds is not None and kind not in want_kinds)
                    or (t0 is not None and time < t0)
                    or (t1 is not None and time >= t1)
                ):
                    for _ in range(nfields):
                        _read_exact(handle, 2)
                        _skip_value(handle, size)
                    continue
                record_fields: Dict[str, Any] = {}
                for _ in range(nfields):
                    (name_idx,) = _S_U16.unpack(_read_exact(handle, 2))
                    name = name_table[name_idx]
                    if want_fields is None or name in want_fields:
                        record_fields[name] = _read_value(handle)
                    else:
                        _skip_value(handle, size)
                yield TraceRecord(time, kind, record_fields)
            else:
                raise ValueError(f"unknown spill frame tag 0x{tag:02x}")


def read_spill(path: str) -> List[TraceRecord]:
    """Load a :meth:`TraceCollector.spill_to` file back into records."""
    return list(iter_spill(path))
