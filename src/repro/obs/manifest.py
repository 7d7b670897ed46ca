"""Run provenance manifests: one ``runs.jsonl`` line per experiment run.

The artifact store answers "what result does this cell have"; the
manifest ledger answers "**which runs produced it** and what did they
cost".  Every :class:`repro.experiments.registry.ExperimentSpec`
execution routed through the store — CLI ``run``/``batch``,
``fetch_or_run``, ``summary``'s sibling fetches — appends one JSON line
to ``<store-root>/runs.jsonl``:

.. code-block:: json

    {"version": 1, "experiment": "fig10", "params": "{...}",
     "fingerprint": "a3947f827703ebbf", "cached": false,
     "wall_s": 1.83, "timestamp": "2026-08-06T01:42:07+0000",
     "host": "buildbox", "python": "3.11.7",
     "obs_digest": "91c3b2a07d44e1aa", "trace_path": "trace.json",
     "error": null}

* ``params`` is the canonical sorted-key JSON the store hashes into
  the cell address, so a manifest line names its artifact exactly;
* ``fingerprint`` is the experiment's code fingerprint at run time;
* ``obs_digest`` hashes the observability snapshot taken right after
  the run (``None`` when the registry was disabled) — two runs with
  the same digest did the same work;
* ``trace_path`` records where the Chrome trace landed when tracing
  was on;
* ``error`` is ``"ExcType: message"`` for failed batch cells, so the
  ledger shows what *didn't* produce an artifact too.

Appends are single ``write()`` calls of one ``\\n``-terminated line in
append mode, which POSIX keeps atomic at these sizes — concurrent
writers interleave whole lines, never characters.  Reading is tolerant:
:func:`read_manifests` skips unparseable lines instead of failing the
ledger over one torn write.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

from repro import obs

#: Manifest line schema version.
MANIFEST_VERSION = 1

#: Ledger filename under the store root.
RUNS_FILENAME = "runs.jsonl"


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one experiment run.

    Attributes:
        experiment: registered experiment name.
        params: canonical sorted-key params JSON (the store's cell key).
        fingerprint: experiment code fingerprint at run time.
        cached: True when the result was served from the store.
        wall_s: wall-clock seconds of the run (or store load).
        timestamp: ISO-8601 local time with UTC offset.
        host: machine hostname.
        python: interpreter version.
        obs_digest: 16-hex digest of the post-run observability
            snapshot, ``None`` when the registry was disabled.
        trace_path: where the Chrome trace was written, if tracing.
        error: ``"ExcType: message"`` for failed runs, else ``None``.
    """

    experiment: str
    params: str
    fingerprint: str
    cached: bool
    wall_s: float
    timestamp: str
    host: str
    python: str
    obs_digest: Optional[str] = None
    trace_path: Optional[str] = None
    error: Optional[str] = None

    def to_line(self) -> str:
        """This manifest as one newline-terminated JSON line."""
        record = {"version": MANIFEST_VERSION, **asdict(self)}
        return json.dumps(record, sort_keys=True) + "\n"

    @classmethod
    def from_line(cls, line: str) -> "RunManifest":
        """Parse one ledger line (raises on malformed input)."""
        record = json.loads(line)
        record.pop("version", None)
        return cls(**record)


def snapshot_digest(snapshot: dict) -> str:
    """Deterministic 16-hex digest of an observability snapshot."""
    canonical = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def runs_path(store_root: Union[str, Path]) -> Path:
    """The ledger path under a store root (existing or not)."""
    return Path(store_root) / RUNS_FILENAME


def build_manifest(
    experiment: str,
    params: str,
    fingerprint: str,
    cached: bool,
    wall_s: float,
    trace_path: Optional[str] = None,
    error: Optional[str] = None,
) -> RunManifest:
    """Assemble a manifest, stamping host/python/time/obs state."""
    return RunManifest(
        experiment=experiment,
        params=params,
        fingerprint=fingerprint,
        cached=cached,
        wall_s=round(wall_s, 6),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        host=platform.node(),
        python=platform.python_version(),
        obs_digest=snapshot_digest(obs.snapshot()) if obs.enabled() else None,
        trace_path=trace_path,
        error=error,
    )


def append_manifest(
    store_root: Union[str, Path], manifest: RunManifest
) -> Path:
    """Append one manifest line to the store's ledger; returns its path."""
    path = runs_path(store_root)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(manifest.to_line())
    return path


def read_manifests(store_root: Union[str, Path]) -> list[RunManifest]:
    """Every parseable ledger line, in append (chronological) order.

    Unparseable lines (torn concurrent writes, hand edits) are skipped:
    the ledger is an audit trail, and one bad line must not take the
    rest down with it.
    """
    path = runs_path(store_root)
    if not path.is_file():
        return []
    manifests: list[RunManifest] = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            manifests.append(RunManifest.from_line(line))
        except (json.JSONDecodeError, TypeError, KeyError):
            continue
    return manifests
