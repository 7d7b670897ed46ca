"""Admission policies for the online runtime.

A policy answers one question whenever cores free up or a job arrives
at an undeferred queue head: *may the queue's head job start now, on
these cores, at which v/f?*
The simulator first asks :meth:`AdmissionPolicy.threads_for`, places that
many cores with its placer, and then calls :meth:`AdmissionPolicy.admit`
with the *actual* tentative placement — so thermal verification sees
exactly the chip state that would result, not a proxy.

Two policies mirror the paper's central comparison:

* :class:`TdpFifoPolicy` — the state-of-practice baseline: a fixed
  thread count at the maximum nominal frequency, admitted whenever the
  chip-level TDP still has room (TDPmap's online sibling).
* :class:`TspAdaptivePolicy` — thermally verified admission: the DVFS
  ladder is walked down from the nominal maximum and the first level
  whose steady state (with the job on its actual cores) stays below
  T_DTM is granted.  The chip's worst-case TSP table prunes the search:
  levels whose per-core power exceeds ``TSP(1)`` can never be safe
  alone, and the table's safe frequency is where the search converges
  under saturation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.apps.operating_points import operating_points
from repro.chip import Chip
from repro.core.tsp import ThermalSafePower
from repro.errors import ConfigurationError, InfeasibleError
from repro.runtime.jobs import Job


@dataclass(frozen=True)
class AdmissionDecision:
    """A policy's grant for one job.

    Attributes:
        threads: thread count to run with.
        frequency: operating frequency, Hz.
    """

    threads: int
    frequency: float


class AdmissionPolicy(abc.ABC):
    """Decides whether/how the head-of-queue job may start."""

    def __init__(self, threads: int = 8) -> None:
        if threads < 1:
            raise ConfigurationError(f"threads must be positive, got {threads}")
        self._threads = threads

    def threads_for(self, job: Job) -> int:
        """Thread count this policy would grant ``job``."""
        return min(self._threads, job.max_threads)

    @abc.abstractmethod
    def admit(
        self,
        chip: Chip,
        job: Job,
        core_powers: np.ndarray,
        cores: Sequence[int],
    ) -> Optional[AdmissionDecision]:
        """Grant a configuration for ``job`` on ``cores`` or defer.

        The simulator relies on two properties of every policy:

        * ``admit`` is a deterministic function of its arguments (and of
          the policy's construction parameters), like ``threads_for``;
        * a deferral stands until a job completes.  Arrivals change none
          of the arguments, so the simulator does not ask again for the
          same head job until cores free up.

        Args:
            chip: the chip.
            job: the candidate job.
            core_powers: current per-core power draw, W.
            cores: the tentative placement (length
                ``threads_for(job)``), currently unoccupied.
        """


class TdpFifoPolicy(AdmissionPolicy):
    """Fixed-shape admission under a chip-level TDP.

    Args:
        tdp: the power budget, W.
        threads: threads per job (the paper's baseline uses 8).
        frequency: operating frequency, Hz; defaults to the node's
            nominal maximum at admission time.
    """

    def __init__(
        self, tdp: float, threads: int = 8, frequency: Optional[float] = None
    ) -> None:
        super().__init__(threads)
        if tdp <= 0:
            raise ConfigurationError(f"tdp must be positive, got {tdp}")
        self._tdp = tdp
        self._frequency = frequency

    def admit(
        self,
        chip: Chip,
        job: Job,
        core_powers: np.ndarray,
        cores: Sequence[int],
    ) -> Optional[AdmissionDecision]:
        threads = len(cores)
        frequency = self._frequency if self._frequency else chip.node.f_max
        per_core = operating_points(job.app, chip.node, chip.t_dtm).core_power(
            threads, frequency
        )
        if float(core_powers.sum()) + threads * per_core > self._tdp + 1e-9:
            return None
        return AdmissionDecision(threads=threads, frequency=frequency)


class TspAdaptivePolicy(AdmissionPolicy):
    """Thermally verified admission, TSP-informed.

    Args:
        tsp: the chip's TSP calculator (its table bounds the ladder
            search from below: descending past the TSP-safe frequency is
            pointless, because that level is safe for *any* placement
            when every running core also respects it — the verification
            still runs, since earlier admissions may exceed it).
        threads: threads per job.
        safety_margin: kelvin kept below T_DTM during verification.
    """

    def __init__(
        self,
        tsp: ThermalSafePower,
        threads: int = 8,
        safety_margin: float = 0.0,
    ) -> None:
        super().__init__(threads)
        if safety_margin < 0:
            raise ConfigurationError(
                f"safety_margin must be non-negative, got {safety_margin}"
            )
        self._tsp = tsp
        self._margin = safety_margin

    def admit(
        self,
        chip: Chip,
        job: Job,
        core_powers: np.ndarray,
        cores: Sequence[int],
    ) -> Optional[AdmissionDecision]:
        threads = len(cores)
        limit = chip.t_dtm - self._margin

        # Descend from the nominal maximum, but never below the TSP-safe
        # frequency for the resulting active-core count: admitting a job
        # at a crawl blocks its cores for ages and collapses throughput —
        # deferring until cores free up dominates.  (The TSP frequency is
        # what saturation converges to, so the floor costs nothing in the
        # steady state.)
        active_after = int(np.count_nonzero(core_powers)) + threads
        try:
            floor = self._tsp.safe_frequency(job.app, active_after, threads=threads)
        except InfeasibleError:
            floor = chip.node.f_min

        # The ladder is ascending, so the descending candidate walk of
        # the direct path ("stop below the floor") is the suffix >= floor,
        # highest first.  By superposition a level's tentative state is
        # the current temperatures plus its per-core power times the
        # placed cores' summed influence columns: one matvec per call,
        # then O(n) per level.
        table = operating_points(job.app, chip.node, chip.t_dtm)
        candidates = [f for f in reversed(table.frequencies) if f >= floor]
        if not candidates:
            return None
        base = chip.engine.temperatures(core_powers)
        column = chip.engine.influence[:, list(cores)].sum(axis=1)
        for f in candidates:
            peak = (base + table.core_power(threads, f) * column).max()
            if peak <= limit + 1e-9:
                return AdmissionDecision(threads=threads, frequency=f)
        return None
