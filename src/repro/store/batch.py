"""Store-backed execution of ``(experiment, params)`` cells.

:class:`BatchRunner` is the one code path that turns a cell into a
result: the CLI's ``run`` and ``batch`` commands and ``summary``'s
sibling lookups all go through it, so every caller shares one
cache-key discipline.

Warm cells are served straight from the store in the parent process —
no worker is spawned for them.  Cold cells fan out through
:class:`repro.perf.SweepRunner`, which merges each worker's
observability delta back into the parent registry, exactly as the
experiment sweeps do.  Workers exchange only picklable data: cells
travel as ``(name, canonical-params-json)`` and results come back as
encoded payloads, which the parent persists and decodes.

Store-aware experiments (``summary``) run in a second wave, after every
ordinary cell's artifact has been written, so their sibling lookups hit
the store even on a cold batch.

Every store-routed cell — served, executed or failed — also appends a
:class:`repro.obs.manifest.RunManifest` line to the store's
``runs.jsonl`` ledger, so the provenance trail (which run produced which
artifact, at what cost, under which code fingerprint) accumulates next
to the artifacts themselves.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.registry import ExperimentSpec
from repro.io import decode_value
from repro.obs.manifest import append_manifest, build_manifest
from repro.perf.sweep import SweepRunner
from repro.store.artifacts import ArtifactStore


@dataclass(frozen=True)
class BatchCell:
    """One unit of batch work: an experiment name plus resolved params."""

    experiment: str
    params: dict


@dataclass
class BatchOutcome:
    """What happened to one cell.

    Attributes:
        cell: the input cell.
        result: the decoded experiment result (``None`` on failure).
        cached: True when served from the store without executing.
        seconds: execution (or load) wall-clock, s.
        error: ``"ExcType: message"`` when the cell failed, else ``None``.
        trace: the failing cell's (worker-side) traceback, else ``None``.
    """

    cell: BatchCell
    result: Any = None
    cached: bool = False
    seconds: float = 0.0
    error: Optional[str] = None
    trace: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the cell produced a result."""
        return self.error is None


def _execute_cell(
    item: tuple[str, str, Optional[str], bool],
) -> dict:
    """Worker-side cell execution (module-level: picklable).

    The run sits in an ``experiment.<name>`` span, so a profiled batch
    attributes time per experiment.  A result without ``to_payload()``
    fails the cell with a :class:`ConfigurationError` naming it.

    Args:
        item: ``(experiment, canonical-params-json, store-root, force)``.
            The store root is only passed for store-aware experiments,
            which read sibling artifacts while running.

    Returns:
        ``{"payload": ..., "seconds": ...}`` on success,
        ``{"error": ..., "trace": ..., "seconds": ...}`` on failure —
        exceptions never cross the process boundary, so one failing cell
        cannot abort the pool (the batch reports it per-cell instead).
    """
    import json

    from repro.experiments import registry
    from repro.experiments.common import experiment_span

    name, params_json, store_root, force = item
    started = time.perf_counter()
    try:
        spec = registry.get(name)
        params = json.loads(params_json)
        store = ArtifactStore(store_root) if store_root is not None else None
        with experiment_span(name):
            result = spec.run(params, store=store, force=force)
        if not hasattr(result, "to_payload"):
            raise ConfigurationError(
                f"result of {name!r} is not payload-serialisable "
                f"({type(result).__name__} has no to_payload())"
            )
        payload = result.to_payload()
    except Exception as exc:  # noqa: BLE001 - reported per-cell
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "trace": traceback.format_exc(limit=8),
            "seconds": time.perf_counter() - started,
        }
    return {"payload": payload, "seconds": time.perf_counter() - started}


class BatchRunner:
    """Executes batch cells against an artifact store.

    Args:
        store: artifact store; ``None`` runs everything, persists
            nothing.
        sweep: cold-cell executor; pass a parallel
            :class:`~repro.perf.sweep.SweepRunner` to fan cold cells out
            across worker processes.  Warm cells never reach it.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        sweep: Optional[SweepRunner] = None,
    ) -> None:
        self.store = store
        self.sweep = sweep or SweepRunner()

    def run(
        self,
        cells: Sequence[BatchCell],
        force: bool = False,
    ) -> list[BatchOutcome]:
        """Execute every cell; returns outcomes in input order.

        Cell failures are captured per-outcome (``error`` set), never
        raised — callers decide whether a partial batch is fatal.  With
        a store, one manifest line per cell (including failed ones)
        lands in ``runs.jsonl``.
        """
        from repro.experiments import registry

        specs = {
            i: registry.get(cell.experiment) for i, cell in enumerate(cells)
        }
        outcomes: dict[int, BatchOutcome] = {}

        # Store-aware experiments (summary) run after every ordinary
        # cell's artifact exists, so their sibling reads hit the store.
        waves = (
            [i for i in range(len(cells)) if not specs[i].store_aware],
            [i for i in range(len(cells)) if specs[i].store_aware],
        )
        for wave_index, wave in enumerate(waves):
            cold: list[int] = []
            for i in wave:
                outcome = self._try_serve(specs[i], cells[i], force)
                if outcome is not None:
                    outcomes[i] = outcome
                else:
                    cold.append(i)
            if not cold:
                continue
            items = []
            for i in cold:
                spec = specs[i]
                store_root = (
                    str(self.store.root)
                    if self.store is not None and spec.store_aware
                    else None
                )
                items.append(
                    (
                        spec.name,
                        spec.canonical_params(cells[i].params),
                        store_root,
                        force,
                    )
                )
            stage = "batch" if wave_index == 0 else "batch.store_aware"
            raw = self.sweep.map(items, _execute_cell, stage=stage)
            for i, out in zip(cold, raw):
                outcomes[i] = self._finish_cold(specs[i], cells[i], out)
        ordered = [outcomes[i] for i in range(len(cells))]
        if self.store is not None:
            for i, outcome in enumerate(ordered):
                append_manifest(
                    self.store.root,
                    build_manifest(
                        outcome.cell.experiment,
                        specs[i].canonical_params(outcome.cell.params),
                        specs[i].fingerprint(),
                        cached=outcome.cached,
                        wall_s=outcome.seconds,
                        error=outcome.error,
                    ),
                )
        return ordered

    def _try_serve(
        self, spec: ExperimentSpec, cell: BatchCell, force: bool
    ) -> Optional[BatchOutcome]:
        """Serve one cell from the store, or ``None`` when cold."""
        if self.store is None:
            return None
        started = time.perf_counter()
        canonical = spec.canonical_params(cell.params)
        payload = self.store.get_payload(
            spec.name, canonical, spec.fingerprint(), force=force
        )
        if payload is None:
            return None
        return BatchOutcome(
            cell=cell,
            result=decode_value(payload),
            cached=True,
            seconds=time.perf_counter() - started,
        )

    def _finish_cold(
        self, spec: ExperimentSpec, cell: BatchCell, out: dict
    ) -> BatchOutcome:
        """Persist and decode one executed cell's worker output."""
        if "error" in out:
            return BatchOutcome(
                cell=cell,
                seconds=out["seconds"],
                error=out["error"],
                trace=out["trace"],
            )
        payload = out["payload"]
        if self.store is not None:
            self.store.put_payload(
                spec.name,
                spec.canonical_params(cell.params),
                spec.fingerprint(),
                payload,
            )
        return BatchOutcome(
            cell=cell,
            result=decode_value(payload),
            cached=False,
            seconds=out["seconds"],
        )
