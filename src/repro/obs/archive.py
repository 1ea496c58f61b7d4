"""Run archives: a manifest indexing every artifact one run emits.

PRs 3-9 made runs emit deterministic artifacts — struct-packed trace
spills, flight JSONL, sampler CSV, live feeds, experiment
reports — but each lived wherever its writer put it, unindexed. A
:class:`RunArchive` ties them together: one ``manifest.json`` per run
recording the run's identity (seed, config signature, commit) and a
content hash per artifact, so two runs can be compared artifact by
artifact (:mod:`repro.obs.query`) and a "same-seed byte-identical"
claim becomes a manifest equality check instead of a manual scan.

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
                    "metrics_jsonl" | "json" | "text",
          "bytes":  <file size>,
          "sha256": "<content hash>"
        }, ...
      }
    }

Nothing wall-clock lands in a manifest, so a same-seed run produces a
byte-identical one (test-enforced). Writers register their output
through a duck-typed hook: every artifact producer that owns a
simulator reference calls ``archive.note(path, kind)`` on
``sim._run_archive`` when present — ``TraceCollector.spill_to``,
``PeriodicSampler.finish``, ``FlightRecorder.close_stream``,
``LiveMonitor.install``, ``ExperimentReport.write`` and the exporters
all do. ``Experiment.run``/``VINI.run`` call :func:`attach_from_env`,
which attaches an archive when ``REPRO_RUN_ARCHIVE`` names a directory
and a feed-only live monitor when ``REPRO_LIVE_FEED`` names a path, and
(re)write the manifest every time a ``run()`` call returns.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

__all__ = [
    "ARCHIVE_SCHEMA",
    "ENV_ARCHIVE",
    "ENV_FEED",
    "MANIFEST_NAME",
    "RunArchive",
    "attach_from_env",
    "config_signature",
    "experiment_signature",
    "load_manifest",
    "note_artifact",
    "sha256_file",
]

#: Manifest schema identifier (documented in EXPERIMENTS.md).
ARCHIVE_SCHEMA = "repro.archive/1"

#: Manifest file name inside an archive directory.
MANIFEST_NAME = "manifest.json"

#: Environment variables read by :func:`attach_from_env`.
ENV_ARCHIVE = "REPRO_RUN_ARCHIVE"
ENV_FEED = "REPRO_LIVE_FEED"


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


def note_artifact(sim, path: str, kind: str, name: Optional[str] = None):
    """Register ``path`` with the simulator's attached archive, if any.

    The one-line hook artifact writers call; a run without an archive
    pays a single ``getattr``.
    """
    archive = getattr(sim, "_run_archive", None)
    if archive is not None:
        archive.note(path, kind, name=name)
    return archive


class RunArchive:
    """The manifest of one run's artifacts, rooted at a directory."""

    def __init__(self, root: str, name: str = "run",
                 meta: Optional[Dict[str, Any]] = None):
        self.root = os.path.abspath(root)
        self.name = name
        self.meta: Dict[str, Any] = dict(meta or {})
        # artifact name -> {"path": abs path, "kind": kind}; hashes are
        # computed at write() time so append-mode artifacts (spills,
        # feeds) are hashed in their final state.
        self._artifacts: Dict[str, Dict[str, Any]] = {}
        self._by_path: Dict[str, str] = {}
        self.sim = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def attach(self, sim) -> "RunArchive":
        """Become ``sim``'s archive: every artifact writer that calls
        :func:`note_artifact` on this simulator lands here."""
        self.sim = sim
        sim._run_archive = self
        if "seed" not in self.meta:
            self.meta["seed"] = getattr(sim, "seed", None)
        # Sweep collectors that were installed before the archive.
        monitor = getattr(sim, "_env_live_monitor", None)
        if monitor is not None and monitor.feed is not None \
                and monitor.feed.path:
            self.note(monitor.feed.path, "live_feed")
        return self

    def detach(self) -> "RunArchive":
        if self.sim is not None \
                and getattr(self.sim, "_run_archive", None) is self:
            self.sim._run_archive = None
        self.sim = None
        return self

    def set_meta(self, **meta: Any) -> "RunArchive":
        self.meta.update(meta)
        return self

    def note(self, path: str, kind: str,
             name: Optional[str] = None) -> str:
        """Register one artifact file. Re-noting the same path updates
        its kind; name collisions between distinct paths get a numeric
        suffix. Returns the artifact name used."""
        abspath = os.path.abspath(path)
        existing = self._by_path.get(abspath)
        if existing is not None:
            self._artifacts[existing]["kind"] = kind
            return existing
        base = name or os.path.basename(path)
        unique, n = base, 1
        while unique in self._artifacts:
            n += 1
            unique = f"{base}-{n}"
        self._artifacts[unique] = {"path": abspath, "kind": kind}
        self._by_path[abspath] = unique
        return unique

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def manifest(self) -> Dict[str, Any]:
        """The manifest document: identity metadata plus one hashed
        entry per artifact whose file exists."""
        meta = dict(self.meta)
        if self.sim is not None:
            meta.setdefault("sim_time", self.sim.now)
            meta.setdefault("events", self.sim._seq)
        artifacts: Dict[str, Any] = {}
        for name in sorted(self._artifacts):
            entry = self._artifacts[name]
            path = entry["path"]
            if not os.path.exists(path):
                continue
            artifacts[name] = {
                "path": os.path.relpath(path, self.root).replace(
                    os.sep, "/"),
                "kind": entry["kind"],
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
        """(Re)write ``manifest.json``; idempotent, called after every
        ``run()`` so the manifest always reflects the latest state."""
        os.makedirs(self.root, exist_ok=True)
        with open(self.manifest_path, "w") as handle:
            json.dump(self.manifest(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return self.manifest_path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RunArchive {self.name!r} root={self.root!r} "
                f"artifacts={len(self._artifacts)}>")


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


def attach_from_env(sim, until: Optional[float] = None, experiment=None):
    """The zero-wiring hook ``Experiment.run``/``VINI.run`` call before
    every ``sim.run``: any scenario — every example and paper scenario
    included — grows an archive and a live feed from two environment
    variables.

    ``REPRO_RUN_ARCHIVE`` names a directory: a :class:`RunArchive` is
    attached there and returned (the caller writes it once the run
    returns). ``REPRO_LIVE_FEED`` names a path: a feed-only
    :class:`~repro.obs.live.LiveMonitor` is installed, its ETA target
    refreshed to ``until`` on every call. Both are idempotent per
    simulator, and the feed lands in the archive whichever came first
    (:meth:`RunArchive.attach` sweeps a monitor installed before it).
    """
    archive = None
    root = os.environ.get(ENV_ARCHIVE)
    if root:
        archive = getattr(sim, "_run_archive", None)
        if archive is None:
            from repro.obs.export import detect_commit

            meta: Dict[str, Any] = {"commit": detect_commit()}
            if experiment is not None:
                meta["config_signature"] = experiment_signature(experiment)
            archive = RunArchive(
                root,
                name=experiment.name if experiment is not None else "run",
                meta=meta,
            ).attach(sim)
    feed = os.environ.get(ENV_FEED)
    if feed:
        monitor = getattr(sim, "_env_live_monitor", None)
        if monitor is None:
            from repro.obs.live import (
                LiveMonitor,
                LivelockWatchdog,
                StallWatchdog,
            )

            monitor = LiveMonitor(sim, feed=feed).watch_engine()
            monitor.add_watchdog(StallWatchdog(budget_s=120.0, action="mark"))
            monitor.add_watchdog(LivelockWatchdog(action="mark"))
            sim._env_live_monitor = monitor.install()
        monitor.until = until
    return archive
