"""repro.store — content-addressed artifact store for experiment results.

Experiments are pure functions of their registered parameters: the same
``(experiment, canonical-params)`` cell always produces the same result
for a given version of the code.  This package memoizes those cells on
disk so a figure is computed once and re-served forever after —
"recompute nothing you can store", applied to the reproduction's own
evaluation pipeline.

* :class:`~repro.store.artifacts.ArtifactStore` — the on-disk store:
  one JSON envelope per cell, addressed by the SHA-256 of
  ``(experiment, canonical-params)``, carrying the payload schema
  version and a per-experiment code fingerprint.  Writes are atomic
  (temp file + ``os.replace``); stale envelopes (schema or fingerprint
  mismatch) count as invalidations and are treated as misses.
* :class:`~repro.store.batch.BatchRunner` — the one way a cell is
  executed: a set of cells across worker processes via
  :class:`repro.perf.SweepRunner`, serving warm cells without spawning
  workers.

Hit/miss/invalidation/write/bypass counts land on each store instance
(:attr:`ArtifactStore.counters`) for programmatic assertions; hits,
misses and writes also land in the global :mod:`repro.obs` registry
under ``store.*``.
"""

from repro.store.artifacts import ArtifactStore
from repro.store.batch import BatchCell, BatchOutcome, BatchRunner

__all__ = [
    "ArtifactStore",
    "BatchCell",
    "BatchOutcome",
    "BatchRunner",
]
