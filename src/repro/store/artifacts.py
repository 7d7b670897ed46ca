"""The on-disk content-addressed artifact store.

Layout (one directory per experiment, one envelope per cell)::

    <root>/
      fig10/
        3f/3f9c2a....json      # sha256(experiment + canonical params)
      summary/
        ...

Envelope schema (JSON)::

    {
      "schema_version": 1,          # payload-encoding version
      "experiment": "fig10",
      "params": "{...canonical json...}",
      "fingerprint": "a3947f827703ebbf",
      "payload": {...}              # repro.io encoded result
    }

The address hashes only ``(experiment, canonical-params)`` — the two
coordinates a caller can name.  The code fingerprint is *verified on
read* instead of being part of the address: when the experiment's code
changes, the next ``get_payload`` observes the mismatch, counts an
**invalidation**, drops the stale envelope and reports a miss, so the
cell is recomputed and overwritten in place (no orphaned entries
accumulate under dead fingerprints).

Writes go through a temp file in the target directory followed by
``os.replace``, so readers never observe a torn envelope and concurrent
writers of the same cell settle on one complete artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro import obs
from repro.io import PAYLOAD_SCHEMA_VERSION

#: Keys of :attr:`ArtifactStore.counters`.
COUNTER_NAMES = ("hits", "misses", "invalidations", "writes", "bypasses")


class ArtifactStore:
    """Content-addressed experiment-result store rooted at a directory.

    Args:
        root: store directory; created lazily on first write.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: Per-instance counts of hits/misses/invalidations/writes/bypasses
        #: (hits, misses and writes also land in ``obs`` as ``store.*``).
        self.counters: dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    @staticmethod
    def address(experiment: str, canonical_params: str) -> str:
        """SHA-256 hex address of one ``(experiment, params)`` cell."""
        digest = hashlib.sha256(
            f"{experiment}\n{canonical_params}".encode()
        )
        return digest.hexdigest()

    def path_for(self, experiment: str, canonical_params: str) -> Path:
        """On-disk path of the cell's envelope (existing or not)."""
        address = self.address(experiment, canonical_params)
        return self.root / experiment / address[:2] / f"{address}.json"

    def get_payload(
        self,
        experiment: str,
        canonical_params: str,
        fingerprint: str,
        force: bool = False,
    ) -> Optional[dict]:
        """The cell's stored payload, or ``None`` on miss.

        A schema-version or fingerprint mismatch counts as an
        invalidation (the stale envelope is removed) and reports a miss;
        ``force`` bypasses the store entirely.  Lookup latency lands in
        the ``store.hit_latency_s`` / ``store.miss_latency_s``
        histograms, so a profiled run shows what serving from disk
        actually costs next to the hit/miss counts.
        """
        if force:
            self.counters["bypasses"] += 1
            return None
        started = time.perf_counter()
        path = self.path_for(experiment, canonical_params)
        try:
            with path.open() as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self.counters["misses"] += 1
            obs.incr("store.misses")
            obs.histogram(
                "store.miss_latency_s", time.perf_counter() - started
            )
            return None
        except (OSError, json.JSONDecodeError):
            # Unreadable/torn envelope: drop and recompute.
            self._invalidate(path)
            return None
        if (
            envelope.get("schema_version") != PAYLOAD_SCHEMA_VERSION
            or envelope.get("fingerprint") != fingerprint
            or envelope.get("experiment") != experiment
            or envelope.get("params") != canonical_params
        ):
            self._invalidate(path)
            return None
        self.counters["hits"] += 1
        obs.incr("store.hits")
        obs.histogram("store.hit_latency_s", time.perf_counter() - started)
        return envelope["payload"]

    def _invalidate(self, path: Path) -> None:
        self.counters["invalidations"] += 1
        self.counters["misses"] += 1
        obs.incr("store.misses")
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / read-only
            pass

    def put_payload(
        self,
        experiment: str,
        canonical_params: str,
        fingerprint: str,
        payload: dict,
    ) -> Path:
        """Atomically write one cell's envelope; returns its path."""
        path = self.path_for(experiment, canonical_params)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema_version": PAYLOAD_SCHEMA_VERSION,
            "experiment": experiment,
            "params": canonical_params,
            "fingerprint": fingerprint,
            "payload": payload,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle)
                handle.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.counters["writes"] += 1
        obs.incr("store.writes")
        return path

    def entries(self) -> list[Path]:
        """Every envelope currently in the store, sorted by path."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*/*.json"))
