"""Acceleration layer: batched steady-state solves and sweep execution.

* :class:`repro.perf.batched.BatchedSteadyState` — the chip's influence
  operator applied to one power vector as a matvec and to whole batches
  in one BLAS matmul, plus the shared TSP budget tables.
* :class:`repro.perf.sweep.SweepRunner` — experiment/benchmark grid
  execution with per-stage timing metrics and optional process
  parallelism.

Every chip exposes a lazily built engine as :attr:`repro.chip.Chip.
engine`; the rewired call sites (TSP, the estimation engine, the dark-
silicon sweeps, the online simulator and its policies) all route through
it and stay numerically equivalent (<= 1e-9 K) to the direct
:class:`repro.thermal.steady_state.SteadyStateSolver` path.

Both classes report to the :mod:`repro.obs` registry when it is enabled
(``tsp.*``, ``sweep.*`` — see
``docs/observability.md``); when disabled — the default — each event
costs one boolean test.
"""

from repro.perf.batched import BatchedSteadyState
from repro.perf.sweep import SweepRunner

__all__ = [
    "BatchedSteadyState",
    "SweepRunner",
]
