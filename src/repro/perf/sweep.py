"""Grid sweep execution with timing metrics and optional parallelism.

The experiment and benchmark modules all share one shape: a cartesian
grid of independent cells (technology nodes x figures, frequency ladders
x core counts, ...) evaluated cell by cell.  :class:`SweepRunner` runs
such grids through one interface, records per-stage wall-clock counters,
and can fan independent cells out to worker *processes* when the host has
cores to spare.

Every stage is also reported to the global :mod:`repro.obs` registry:
the stage's end-to-end wall clock lands under the span
``sweep.<stage>``, cell counts under the ``sweep.cells`` counter, and —
crucially — measurements taken *inside worker processes* (solver calls,
cache hits, TSP builds) are captured as exact per-cell snapshot deltas
and merged back into the parent registry, so a parallel sweep reports
the same totals as a serial one.

Parallel execution uses :mod:`concurrent.futures`; the cell function and
its inputs must then be picklable (module-level functions, or
``functools.partial`` over one).  Chips and solver objects hold sparse
factorisations that do not pickle — parallel cells should receive plain
parameters and obtain chips inside the worker (e.g. via
:func:`repro.experiments.common.get_chip`, whose per-process cache makes
this cheap after the first cell).
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro import obs
from repro.errors import ConfigurationError

K = TypeVar("K")
V = TypeVar("V")


def _timed_cell(fn: Callable[[K], V], cell: K) -> tuple[V, float]:
    """Evaluate one cell and report its wall-clock time (serial path)."""
    start = time.perf_counter()
    result = fn(cell)
    return result, time.perf_counter() - start


def _worker_cell(
    fn: Callable[[K], V], cell: K
) -> tuple[V, float, Optional[dict]]:
    """Worker-side cell evaluation: result, wall time, registry delta.

    The delta is the worker's global-registry diff across the cell, so
    whatever state the worker inherited (a forked parent's counts, a
    previous cell on the same worker) cancels exactly.
    """
    before = obs.snapshot() if obs.enabled() else None
    start = time.perf_counter()
    result = fn(cell)
    elapsed = time.perf_counter() - start
    delta = obs.diff(before) if before is not None else None
    return result, elapsed, delta


def _init_worker(parent_obs_enabled: bool) -> None:
    """Worker initialiser: mirror the parent's observability switch.

    Needed wherever the pool uses the ``spawn`` start method (fresh
    interpreters do not inherit the parent's registry state); harmless
    under ``fork``.
    """
    if parent_obs_enabled:
        obs.enable()


class SweepRunner:
    """Executes independent grid cells, serially or across processes.

    Args:
        max_workers: worker processes; ``None`` or values below 2 run
            cells serially in-process (the right default on small grids
            and single-core hosts, where process startup dominates).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be positive, got {max_workers}"
            )
        self._max_workers = max_workers
        self._metrics: dict[str, dict] = {}

    @property
    def max_workers(self) -> Optional[int]:
        """Configured worker-process count (None = serial)."""
        return self._max_workers

    @property
    def parallel(self) -> bool:
        """True when cells run in worker processes."""
        return self._max_workers is not None and self._max_workers > 1

    @property
    def metrics(self) -> dict[str, dict]:
        """Per-stage timing counters.

        ``{stage: {"cells": n, "wall_s": total, "cell_s": [...],
        "workers": w}}`` — ``cell_s`` holds each cell's own evaluation
        time, in submission order; ``wall_s`` is the stage's end-to-end
        wall clock (under parallelism it is less than ``sum(cell_s)``).
        The same stages appear in the global registry as ``sweep.<stage>``
        spans, where nested/parallel runs aggregate across runners.
        """
        return self._metrics

    @staticmethod
    def grid(*axes: Iterable) -> list[tuple]:
        """Cartesian product of sweep axes, as a list of cells."""
        return list(itertools.product(*axes))

    def map(
        self,
        cells: Sequence[K],
        fn: Callable[[K], V],
        stage: str = "sweep",
    ) -> list[V]:
        """Evaluate ``fn`` over every cell, preserving cell order.

        Args:
            cells: the grid cells.
            fn: the per-cell function; must be picklable when the runner
                is parallel.
            stage: metrics key for this pass (re-running a stage name
                accumulates into the same counters).

        Returns:
            ``[fn(cell) for cell in cells]``.
        """
        with obs.span(f"sweep.{stage}"):
            start = time.perf_counter()
            if self.parallel and len(cells) > 1:
                with ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    initializer=_init_worker,
                    initargs=(obs.enabled(),),
                ) as pool:
                    timed = list(
                        pool.map(_worker_cell, itertools.repeat(fn), cells)
                    )
                # Worker measurements would otherwise die with the pool:
                # fold every cell's exact delta into the parent registry.
                for _, _, delta in timed:
                    obs.merge(delta)
                timed = [(r, t) for r, t, _ in timed]
            else:
                timed = [_timed_cell(fn, cell) for cell in cells]
            wall = time.perf_counter() - start
        obs.incr("sweep.cells", len(cells))
        results = [r for r, _ in timed]
        counters = self._metrics.setdefault(
            stage,
            {"cells": 0, "wall_s": 0.0, "cell_s": [], "workers": self._max_workers or 1},
        )
        counters["cells"] += len(cells)
        counters["wall_s"] += wall
        counters["cell_s"].extend(t for _, t in timed)
        return results

    def map_batched(
        self,
        cells: Sequence[K],
        batch_fn: Callable[[Sequence[K]], Sequence[V]],
        stage: str = "sweep",
    ) -> list[V]:
        """Evaluate the grid through whole-batch calls, preserving order.

        The batched counterpart of :meth:`map` for stages whose per-cell
        work reduces to an operation the lower layers can amortise — a
        multi-right-hand-side solve against one shared factorisation, a
        single BLAS matmul over stacked power vectors.  A serial runner
        hands ``batch_fn`` the whole grid in one call; a parallel runner
        splits the grid into one contiguous chunk per worker (each chunk
        still one batched call), with the same registry-delta merging as
        :meth:`map`.

        Args:
            cells: the grid cells.
            batch_fn: maps a sequence of cells to their per-cell results
                in the same order; must be picklable when the runner is
                parallel.
            stage: metrics key; ``cell_s`` records one entry per *batch*
                call (not per cell) under this method.

        Returns:
            The concatenated per-cell results, in cell order.

        Raises:
            ConfigurationError: when a batch call returns a result count
                different from its cell count.
        """
        with obs.span(f"sweep.{stage}"):
            start = time.perf_counter()
            if self.parallel and len(cells) > 1:
                workers = min(self._max_workers, len(cells))
                bounds = [
                    (len(cells) * w // workers, len(cells) * (w + 1) // workers)
                    for w in range(workers)
                ]
                chunks = [cells[lo:hi] for lo, hi in bounds if hi > lo]
                with ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    initializer=_init_worker,
                    initargs=(obs.enabled(),),
                ) as pool:
                    batched = list(
                        pool.map(_worker_cell, itertools.repeat(batch_fn), chunks)
                    )
                for _, _, delta in batched:
                    obs.merge(delta)
                timed = [(r, t) for r, t, _ in batched]
            else:
                chunks = [cells]
                timed = [_timed_cell(batch_fn, cells)]
            wall = time.perf_counter() - start
        results: list[V] = []
        for chunk, (chunk_results, _) in zip(chunks, timed):
            chunk_results = list(chunk_results)
            if len(chunk_results) != len(chunk):
                raise ConfigurationError(
                    f"batch_fn returned {len(chunk_results)} results for "
                    f"{len(chunk)} cells in stage {stage!r}"
                )
            results.extend(chunk_results)
        obs.incr("sweep.cells", len(cells))
        counters = self._metrics.setdefault(
            stage,
            {"cells": 0, "wall_s": 0.0, "cell_s": [], "workers": self._max_workers or 1},
        )
        counters["cells"] += len(cells)
        counters["wall_s"] += wall
        counters["cell_s"].extend(t for _, t in timed)
        return results
