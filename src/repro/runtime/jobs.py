"""Jobs and job streams for the online runtime simulator.

A job is a fixed amount of work (instructions) of one application,
arriving at a known time.  How fast it completes depends on the
configuration the admission policy grants it: ``threads`` cores at
frequency ``f`` retire ``S(threads) * IPC * f`` instructions per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.apps.profile import AppProfile
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Job:
    """One application run request.

    Attributes:
        job_id: unique identifier (assigned by the stream generator).
        app: the application profile.
        arrival: arrival time, s.
        work: instructions to execute (e.g. 100e9 for a ~10 s job at
            10 GIPS).
        max_threads: cap on the threads the policy may grant.
    """

    job_id: int
    app: AppProfile
    arrival: float
    work: float
    max_threads: int = 8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.arrival) and self.arrival >= 0):
            raise ConfigurationError(
                f"arrival must be finite and non-negative, got {self.arrival}"
            )
        if not (math.isfinite(self.work) and self.work > 0):
            raise ConfigurationError(f"work must be finite and positive, got {self.work}")
        if not 1 <= self.max_threads <= self.app.max_threads:
            raise ConfigurationError(
                f"max_threads must be in [1, {self.app.max_threads}], "
                f"got {self.max_threads}"
            )

    def duration(self, threads: int, frequency: float) -> float:
        """Execution time at the given configuration, s."""
        rate = self.app.instance_performance(threads, frequency)
        if rate <= 0:
            raise ConfigurationError("configuration yields zero throughput")
        return self.work / rate


@dataclass(frozen=True)
class JobRecord:
    """Completion record of one job.

    Attributes:
        job: the job.
        start: execution start time, s.
        finish: completion time, s.
        threads: granted thread count.
        frequency: granted frequency, Hz.
        cores: core indices it ran on.
    """

    job: Job
    start: float
    finish: float
    threads: int
    frequency: float
    cores: tuple[int, ...]

    @property
    def waiting_time(self) -> float:
        """Queueing delay before execution, s."""
        return self.start - self.job.arrival

    @property
    def response_time(self) -> float:
        """Arrival-to-completion latency, s."""
        return self.finish - self.job.arrival


def deterministic_job_stream(
    apps: Sequence[AppProfile],
    n_jobs: int,
    mean_interarrival: float,
    work: float,
    seed: int = 1,
) -> list[Job]:
    """A reproducible Poisson-like job stream.

    Inter-arrival times are exponential, applications drawn uniformly —
    both from a seeded generator, so every run of an experiment sees the
    identical stream.

    Args:
        apps: the application pool.
        n_jobs: number of jobs.
        mean_interarrival: mean gap between arrivals, s.
        work: instructions per job.
        seed: RNG seed.
    """
    if not apps:
        raise ConfigurationError("need at least one application")
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be positive, got {n_jobs}")
    if mean_interarrival <= 0:
        raise ConfigurationError(
            f"mean_interarrival must be positive, got {mean_interarrival}"
        )
    rng = np.random.default_rng(seed)
    t = 0.0
    jobs: list[Job] = []
    for i in range(n_jobs):
        t += float(rng.exponential(mean_interarrival))
        app = apps[int(rng.integers(len(apps)))]
        jobs.append(Job(job_id=i, app=app, arrival=t, work=work))
    return jobs
