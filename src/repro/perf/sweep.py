"""Grid sweep execution with optional process parallelism.

The experiment and benchmark modules all share one shape: a list of
independent cells (technology nodes x figures, frequency ladders x core
counts, registry cells, ...) evaluated cell by cell.
:class:`SweepRunner` runs such lists through one interface and can fan
independent cells out to worker *processes* when the host has cores to
spare.

Every pass is reported to the global :mod:`repro.obs` registry: its
end-to-end wall clock lands under the span ``sweep.<stage>``, cell
counts under the ``sweep.cells`` counter, and — crucially —
measurements taken *inside worker processes* (solver calls, cache hits,
TSP builds) are captured as exact per-cell snapshot deltas and merged
back into the parent registry, so a parallel sweep reports the same
totals as a serial one.

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
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence, TypeVar

from repro import obs
from repro.errors import ConfigurationError

K = TypeVar("K")
V = TypeVar("V")


def _worker_cell(fn: Callable[[K], V], cell: K) -> tuple[V, Optional[dict]]:
    """Worker-side cell evaluation: the result and a registry delta.

    The delta is the worker's global-registry diff across the cell, so
    whatever state the worker inherited (a forked parent's counts, a
    previous cell on the same worker) cancels exactly.
    """
    before = obs.snapshot() if obs.enabled() else None
    result = fn(cell)
    delta = obs.diff(before) if before is not None else None
    return result, delta


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

    @property
    def parallel(self) -> bool:
        """True when cells run in worker processes."""
        return self._max_workers is not None and self._max_workers > 1

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
            stage: names this pass's ``sweep.<stage>`` span.

        Returns:
            ``[fn(cell) for cell in cells]``.
        """
        with obs.span(f"sweep.{stage}"):
            if self.parallel and len(cells) > 1:
                with ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    initializer=_init_worker,
                    initargs=(obs.enabled(),),
                ) as pool:
                    evaluated = list(
                        pool.map(_worker_cell, itertools.repeat(fn), cells)
                    )
                # Worker measurements would otherwise die with the pool:
                # fold every cell's exact delta into the parent registry.
                for _, delta in evaluated:
                    obs.merge(delta)
                results = [r for r, _ in evaluated]
            else:
                results = [fn(cell) for cell in cells]
        obs.incr("sweep.cells", len(cells))
        return results
