"""Run archives: a manifest indexing every artifact one run emits.

Runs emit deterministic artifacts — struct-packed trace spills, flight
JSONL, sampler CSV, live feeds, experiment reports. A
:class:`RunArchive` is the directory they are written into: one
``manifest.json`` per run recording the run's identity (seed, config
signature, commit) and a content hash per artifact, so two runs can be
compared artifact by artifact (:mod:`repro.obs.query`) and a
"same-seed byte-identical" claim becomes a manifest equality check
instead of a manual scan.

Manifest schema (``repro.archive/1``)::

    {
      "schema": "repro.archive/1",
      "name": "<run name>",
      "meta": {"seed": ..., "config_signature": ..., "commit": ...,
               "sim_time": ..., "events": ..., ...},
      "artifacts": {
        "<artifact name>": {
          "path":   "<relative to the manifest's directory>",
          "kind":   "trace_spill" | "live_feed" | "sampler_csv" |
                    "flight_jsonl" | "report_json" | "report_md" |
                    "json" | "text",
          "bytes":  <file size>,
          "sha256": "<content hash>"
        }, ...
      }
    }

Nothing registers itself: :meth:`RunArchive.write` indexes every file
under the root (the manifest aside), named by its root-relative path
and typed from its bytes by :func:`artifact_kind`. Nothing wall-clock
lands in a manifest, so a same-seed run produces a byte-identical one
(test-enforced).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro.obs.export import SERIES_HEADER
from repro.obs.live import FEED_SCHEMA

__all__ = [
    "ARCHIVE_SCHEMA",
    "MANIFEST_NAME",
    "RunArchive",
    "artifact_kind",
    "config_signature",
    "experiment_signature",
    "load_manifest",
    "sha256_file",
]

#: Manifest schema identifier (documented in EXPERIMENTS.md).
ARCHIVE_SCHEMA = "repro.archive/1"

#: Manifest file name inside an archive directory.
MANIFEST_NAME = "manifest.json"


def sha256_file(path: str, chunk: int = 1 << 20) -> str:
    """Streaming content hash — never loads the file whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def artifact_kind(path: str) -> str:
    """The kind of the artifact at ``path``, decided from its bytes.

    A spill by its magic; a sampler CSV by its header; a report by its
    Markdown title or by the generator in its JSON ``meta``; a live feed
    or flight stream by its first JSON line. Any other JSON document is
    ``json``, anything else ``text``.
    """
    from repro.sim.trace import _SPILL_MAGIC

    with open(path, "rb") as handle:
        first = handle.readline(1 << 16)
    if first.startswith(_SPILL_MAGIC):
        return "trace_spill"
    first = first.strip()
    if first == ",".join(SERIES_HEADER).encode():
        return "sampler_csv"
    if first.startswith(b"# Experiment report"):
        return "report_md"
    try:
        head = json.loads(first)
    except ValueError:
        head = None
    if isinstance(head, dict):
        if head.get("schema") == FEED_SCHEMA:
            return "live_feed"
        if head.get("kind") in ("flight", "control"):
            return "flight_jsonl"
    if not first.startswith((b"{", b"[")):
        return "text"
    try:
        with open(path, "rb") as handle:
            doc = json.load(handle)
    except ValueError:
        return "text"
    meta = doc.get("meta") if isinstance(doc, dict) else None
    if isinstance(meta, dict) and meta.get("generator") == "repro.obs.report":
        return "report_json"
    return "json"


def config_signature(config: Any) -> str:
    """Stable 16-hex signature of an arbitrary configuration value.

    Canonical JSON (sorted keys, ``repr`` for non-JSON leaves) hashed
    with sha256 — the same config always signs identically, across
    processes and machines, so manifests from different runs of the
    same cell agree on identity before any artifact is compared.
    """
    text = json.dumps(config, sort_keys=True, default=repr,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def experiment_signature(exp) -> str:
    """Signature of an :class:`~repro.core.experiment.Experiment`:
    slice name, topology (nodes + links with costs), and the event
    timetable labels — everything that makes two runs "the same
    experiment" besides the seed."""
    network = exp.network
    links = sorted(
        (min(link.a.name, link.b.name), max(link.a.name, link.b.name),
         link.cost)
        for link in network.links
    )
    return config_signature({
        "name": exp.name,
        "nodes": sorted(network.nodes),
        "links": links,
        "timetable": exp.timetable(),
    })


class RunArchive:
    """The manifest of one run's artifacts: the files under ``root``."""

    def __init__(self, root: str, name: str = "run",
                 meta: Optional[Dict[str, Any]] = None):
        self.root = os.path.abspath(root)
        self.name = name
        self.meta: Dict[str, Any] = dict(meta or {})
        self.sim = None

    def attach(self, sim) -> "RunArchive":
        """Record ``sim``'s seed now, and its clock and event count
        when the manifest is written."""
        self.sim = sim
        if "seed" not in self.meta:
            self.meta["seed"] = getattr(sim, "seed", None)
        return self

    def detach(self) -> "RunArchive":
        self.sim = None
        return self

    def set_meta(self, **meta: Any) -> "RunArchive":
        self.meta.update(meta)
        return self

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def manifest(self) -> Dict[str, Any]:
        """The manifest document: identity metadata plus one hashed,
        typed entry per file under the root."""
        meta = dict(self.meta)
        if self.sim is not None:
            meta.setdefault("sim_time", self.sim.now)
            meta.setdefault("events", self.sim._seq)
        artifacts: Dict[str, Any] = {}
        for folder, dirs, files in os.walk(self.root):
            dirs.sort()
            for file in sorted(files):
                path = os.path.join(folder, file)
                if path == self.manifest_path:
                    continue
                name = os.path.relpath(path, self.root).replace(os.sep, "/")
                artifacts[name] = {
                    "path": name,
                    "kind": artifact_kind(path),
                    "bytes": os.path.getsize(path),
                    "sha256": sha256_file(path),
                }
        return {
            "schema": ARCHIVE_SCHEMA,
            "name": self.name,
            "meta": meta,
            "artifacts": artifacts,
        }

    def write(self) -> str:
        """(Re)write ``manifest.json`` from the files under the root as
        they are now; idempotent."""
        os.makedirs(self.root, exist_ok=True)
        with open(self.manifest_path, "w") as handle:
            json.dump(self.manifest(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return self.manifest_path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RunArchive {self.name!r} root={self.root!r}>"


def load_manifest(path: str) -> Dict[str, Any]:
    """Load a manifest from a path — the file itself or its archive
    directory — and validate the schema."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    with open(path) as handle:
        try:
            manifest = json.load(handle)
        except ValueError as exc:
            raise ValueError(
                f"{path!r}: manifest does not parse ({exc})") from exc
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != ARCHIVE_SCHEMA:
        raise ValueError(
            f"{path!r}: unsupported archive schema {schema!r} "
            f"(expected {ARCHIVE_SCHEMA!r})"
        )
    manifest["_path"] = os.path.abspath(path)
    return manifest


def resolve_artifact(manifest: Dict[str, Any], name: str) -> str:
    """Absolute path of artifact ``name`` in a loaded manifest."""
    artifacts = manifest["artifacts"]
    if name not in artifacts:
        raise KeyError(
            f"{manifest['_path']!r} has no artifact {name!r} "
            f"(it has: {', '.join(sorted(artifacts)) or 'none'})"
        )
    base = os.path.dirname(manifest["_path"])
    return os.path.normpath(os.path.join(base, artifacts[name]["path"]))
