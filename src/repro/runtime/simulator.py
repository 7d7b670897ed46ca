"""The online event loop: arrivals, admissions, completions, metrics.

A quasi-static thermal treatment is used: between scheduling events the
chip state is constant, so its steady-state solution bounds the interval
(the package settles within seconds, job durations are tens of seconds).
Energy is integrated per interval from the same quasi-static powers.

Queueing is FIFO with head-of-line blocking: the simulator admits from
the queue front for as long as the policy grants configurations, which
keeps policy comparisons fair (no policy may cherry-pick easy jobs).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.apps.operating_points import operating_points
from repro.chip import Chip
from repro.errors import ConfigurationError
from repro.mapping.base import Placer
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.runtime.jobs import Job, JobRecord
from repro.runtime.policies import AdmissionPolicy
from repro.units import gips as to_gips


@dataclass(frozen=True)
class RuntimeResult:
    """Aggregate outcome of one simulated run.

    Attributes:
        records: completion records, in completion order.
        makespan: last completion time, s.
        energy: integral of chip power, J.
        max_peak_temperature: highest quasi-static peak seen, degC.
        core_seconds: busy core-seconds (utilisation numerator).
        n_cores: chip core count.
    """

    records: tuple[JobRecord, ...]
    makespan: float
    energy: float
    max_peak_temperature: float
    core_seconds: float
    n_cores: int

    @property
    def mean_response_time(self) -> float:
        """Average arrival-to-completion latency, s (0.0 with no jobs)."""
        if not self.records:
            return 0.0
        return float(np.mean([r.response_time for r in self.records]))

    @property
    def mean_waiting_time(self) -> float:
        """Average queueing delay, s (0.0 with no jobs)."""
        if not self.records:
            return 0.0
        return float(np.mean([r.waiting_time for r in self.records]))

    @property
    def throughput_gips(self) -> float:
        """Completed work over makespan, GIPS."""
        total_work = sum(r.job.work for r in self.records)
        return to_gips(total_work / self.makespan) if self.makespan > 0 else 0.0

    @property
    def utilisation(self) -> float:
        """Busy core-seconds over total core-seconds."""
        if self.makespan <= 0:
            return 0.0
        return self.core_seconds / (self.n_cores * self.makespan)


class OnlineSimulator:
    """Event-driven execution of a job stream under an admission policy.

    Args:
        chip: the target chip.
        policy: the admission policy.
        placer: spatial placement of admitted jobs (spread by default —
            the thermally sensible choice for any policy).
    """

    def __init__(
        self,
        chip: Chip,
        policy: AdmissionPolicy,
        placer: Optional[Placer] = None,
    ) -> None:
        self._chip = chip
        self._policy = policy
        self._placer = placer or NeighbourhoodSpreadPlacer()

    def run(self, jobs: Sequence[Job]) -> RuntimeResult:
        """Simulate the whole stream to completion.

        Raises:
            ConfigurationError: if the stream is empty, or if some job
                can never be admitted even on an idle chip (the stream
                would hang).
        """
        if not jobs:
            raise ConfigurationError(
                "job stream is empty; nothing to simulate"
            )
        chip = self._chip
        engine = chip.engine
        jobs = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
        arrivals = list(jobs)
        queue: list[Job] = []
        # (finish_time, job_id, record, cores) heap of running jobs.
        running: list[tuple[float, int, JobRecord]] = []
        occupied: set[int] = set()
        core_powers = np.zeros(chip.n_cores)

        records: list[JobRecord] = []
        now = 0.0
        energy = 0.0
        core_seconds = 0.0
        max_peak = chip.ambient

        def advance(to_time: float) -> None:
            nonlocal now, energy, core_seconds, max_peak
            dt = to_time - now
            if dt > 0:
                energy += float(core_powers.sum()) * dt
                core_seconds += len(occupied) * dt
                if occupied:
                    max_peak = max(
                        max_peak, engine.peak_temperature(core_powers)
                    )
            now = to_time

        def try_admissions() -> None:
            """Admit from the queue front while the policy grants."""
            while queue:
                job = queue[0]
                threads = self._policy.threads_for(job)
                cores = self._placer.place(chip, threads, occupied)
                if cores is None:
                    obs.incr("runtime.placement_deferrals")
                    return
                decision = self._policy.admit(chip, job, core_powers, cores)
                if decision is None:
                    obs.incr("runtime.policy_deferrals")
                    return
                obs.incr("runtime.admissions")
                if decision.threads != len(cores):
                    # Power and duration are computed from the decision
                    # while cores were placed for threads_for(job); a
                    # mismatch would charge per-core power to the wrong
                    # number of cores.
                    raise ConfigurationError(
                        f"policy granted {decision.threads} threads for job "
                        f"{job.job_id} but {len(cores)} cores were placed; "
                        f"threads_for() and admit() must agree"
                    )
                per_core = operating_points(
                    job.app, chip.node, chip.t_dtm
                ).core_power(decision.threads, decision.frequency)
                queue.pop(0)
                occupied.update(cores)
                core_powers[list(cores)] += per_core
                finish = now + job.duration(decision.threads, decision.frequency)
                record = JobRecord(
                    job=job,
                    start=now,
                    finish=finish,
                    threads=decision.threads,
                    frequency=decision.frequency,
                    cores=tuple(cores),
                )
                heapq.heappush(running, (finish, job.job_id, record))

        with obs.span("runtime.run", attrs={"jobs": len(jobs)}):
            while arrivals or queue or running:
                next_arrival = arrivals[0].arrival if arrivals else np.inf
                next_finish = running[0][0] if running else np.inf
                if next_arrival == np.inf and next_finish == np.inf:
                    # Idle chip, jobs queued, nothing admitted: the policy
                    # can never place the head job.
                    raise ConfigurationError(
                        f"job {queue[0].job_id} ({queue[0].app.name}) is "
                        f"never admissible; the stream cannot finish"
                    )
                if next_arrival <= next_finish:
                    advance(next_arrival)
                    queue.append(arrivals.pop(0))
                else:
                    advance(next_finish)
                    _, _, record = heapq.heappop(running)
                    records.append(record)
                    obs.incr("runtime.completions")
                    core_powers[list(record.cores)] = 0.0
                    occupied.difference_update(record.cores)
                try_admissions()

        obs.incr("runtime.simulations")
        # Simulated (not wall) seconds; the timer aggregate gives the
        # mean makespan over runs as total_s / count.
        obs.observe("runtime.simulated_s", now)
        return RuntimeResult(
            records=tuple(records),
            makespan=now,
            energy=energy,
            max_peak_temperature=max_peak,
            core_seconds=core_seconds,
            n_cores=chip.n_cores,
        )
