"""The online event loop against a plain loop that re-asks on every event.

``reference_run`` below is the straightforward formulation of the
runtime: after every arrival and every completion it places the queue's
head job and asks the policy again, it takes the peak temperature once
per interval, and ``TiledTspPolicy`` verifies every ladder level as one
row of a tiled power batch through ``peak_temperatures``.  The
production loop skips a deferred head until a job completes, reuses the
peak of an unchanged power vector, and superposes the ladder candidates
on one matvec; both must produce the same records, makespan, energy and
peak, bit for bit.

Job streams come in bursts, so the queue blocks often, both on cores
(placement deferrals) and on the policy's budget (policy deferrals).
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.operating_points import operating_points
from repro.apps.parsec import PARSEC, PARSEC_ORDER
from repro.core.tsp import ThermalSafePower
from repro.errors import InfeasibleError
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.runtime import (
    AdmissionDecision,
    AdmissionPolicy,
    Job,
    OnlineSimulator,
    TdpFifoPolicy,
    TspAdaptivePolicy,
)


class TiledTspPolicy(AdmissionPolicy):
    """``TspAdaptivePolicy`` verifying each level as a full tentative state."""

    def __init__(self, tsp: ThermalSafePower, threads: int, margin: float) -> None:
        super().__init__(threads)
        self._tsp = tsp
        self._margin = margin

    def admit(self, chip, job, core_powers, cores) -> Optional[AdmissionDecision]:
        threads = len(cores)
        active_after = int(np.count_nonzero(core_powers)) + threads
        try:
            floor = self._tsp.safe_frequency(job.app, active_after, threads=threads)
        except InfeasibleError:
            floor = chip.node.f_min
        table = operating_points(job.app, chip.node, chip.t_dtm)
        candidates = [f for f in reversed(table.frequencies) if f >= floor]
        if not candidates:
            return None
        tentative = np.tile(core_powers, (len(candidates), 1))
        for row, f in enumerate(candidates):
            tentative[row, list(cores)] += table.core_power(threads, f)
        peaks = chip.engine.peak_temperatures(tentative)
        for f, peak in zip(candidates, peaks):
            if peak <= chip.t_dtm - self._margin + 1e-9:
                return AdmissionDecision(threads=threads, frequency=f)
        return None


def reference_run(chip, policy, jobs):
    """Event loop that places and admits the queue head after every event.

    Returns ``(records, makespan, energy, max_peak)``.
    """
    placer = NeighbourhoodSpreadPlacer()
    arrivals = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
    queue = []
    running = []
    occupied = set()
    core_powers = np.zeros(chip.n_cores)
    records = []
    now = energy = 0.0
    max_peak = chip.ambient
    while arrivals or queue or running:
        next_arrival = arrivals[0].arrival if arrivals else np.inf
        next_finish = running[0][0] if running else np.inf
        to_time = min(next_arrival, next_finish)
        if to_time > now:
            energy += float(core_powers.sum()) * (to_time - now)
            if occupied:
                max_peak = max(max_peak, chip.engine.peak_temperature(core_powers))
        now = to_time
        if next_arrival <= next_finish:
            queue.append(arrivals.pop(0))
        else:
            _, _, record = heapq.heappop(running)
            records.append(record)
            cores = record[-1]
            core_powers[list(cores)] = 0.0
            occupied.difference_update(cores)
        while queue:
            job = queue[0]
            cores = placer.place(chip, policy.threads_for(job), occupied)
            if cores is None:
                break
            decision = policy.admit(chip, job, core_powers, cores)
            if decision is None:
                break
            queue.pop(0)
            occupied.update(cores)
            core_powers[list(cores)] += operating_points(
                job.app, chip.node, chip.t_dtm
            ).core_power(decision.threads, decision.frequency)
            finish = now + job.duration(decision.threads, decision.frequency)
            record = (job.job_id, now, finish, decision.threads, decision.frequency, tuple(cores))
            heapq.heappush(running, (finish, job.job_id, record))
    return records, now, energy, max_peak


class CountingPlacer(NeighbourhoodSpreadPlacer):
    """Spread placement that fails on a chip state it has already placed.

    While a head job waits, only completions change what it sees, and
    each one frees cores, so its occupied set strictly shrinks between
    two completions.  A repeated ``(head job, occupied)`` pair therefore
    means the loop placed the same state twice between two completions.
    """

    def __init__(self) -> None:
        super().__init__()
        self.seen: set[tuple[int, frozenset[int]]] = set()
        self.head: Optional[Job] = None

    def place(self, chip, n_cores, occupied):
        state = (self.head.job_id, frozenset(occupied))
        assert state not in self.seen, f"placed {state} twice"
        self.seen.add(state)
        return super().place(chip, n_cores, occupied)


class HeadTrackingPolicy(AdmissionPolicy):
    """Delegating policy that tells the counting placer the head job."""

    def __init__(self, inner: AdmissionPolicy, placer: CountingPlacer) -> None:
        super().__init__()
        self._inner = inner
        self._placer = placer

    def threads_for(self, job):
        self._placer.head = job
        return self._inner.threads_for(job)

    def admit(self, chip, job, core_powers, cores):
        return self._inner.admit(chip, job, core_powers, cores)


def production_run(chip, policy, jobs):
    placer = CountingPlacer()
    result = OnlineSimulator(chip, HeadTrackingPolicy(policy, placer), placer).run(jobs)
    records = [
        (r.job.job_id, r.start, r.finish, r.threads, r.frequency, r.cores)
        for r in result.records
    ]
    return records, result.makespan, result.energy, result.max_peak_temperature


@st.composite
def bursty_streams(draw, max_burst):
    """Bursts of near-simultaneous jobs separated by quiet gaps."""
    jobs = []
    t = 0.0
    for _ in range(draw(st.integers(1, 4))):
        t += draw(st.floats(0.0, 30.0))
        for k in range(draw(st.integers(1, max_burst))):
            jobs.append(
                Job(
                    job_id=len(jobs),
                    app=PARSEC[draw(st.sampled_from(PARSEC_ORDER))],
                    arrival=t + 0.01 * k,
                    work=draw(st.floats(5e9, 80e9)),
                )
            )
    return jobs


def policies(chip, threads, tdp, margin):
    """(production, reference) pairs of both built-in policies."""
    tsp = ThermalSafePower(chip)
    return {
        "tdp_fifo": (TdpFifoPolicy(tdp=tdp, threads=threads),) * 2,
        "tsp_adaptive": (
            TspAdaptivePolicy(tsp, threads=threads, safety_margin=margin),
            TiledTspPolicy(tsp, threads=threads, margin=margin),
        ),
    }


# The 4x4 chip stays below 68 degC fully loaded, so its TSP policy keeps
# a 13 K margin to defer at all; on the 100-core chip it defers and walks
# down the ladder at no margin.
SMALL = dict(threads=4, tdp=55.0, margin=13.0)
CHIP16 = dict(threads=8, tdp=250.0, margin=0.0)


def burst(n_jobs):
    return [
        Job(job_id=k, app=PARSEC[PARSEC_ORDER[k % 7]], arrival=0.01 * k, work=40e9)
        for k in range(n_jobs)
    ]


@pytest.mark.parametrize("policy", ["tdp_fifo", "tsp_adaptive"])
@given(jobs=bursty_streams(max_burst=10))
@settings(max_examples=25, deadline=None)
def test_small_chip_matches_reference(small_chip, policy, jobs):
    production, reference = policies(small_chip, **SMALL)[policy]
    assert production_run(small_chip, production, jobs) == reference_run(
        small_chip, reference, jobs
    )


@pytest.mark.parametrize("policy", ["tdp_fifo", "tsp_adaptive"])
@given(jobs=bursty_streams(max_burst=24))
@settings(max_examples=10, deadline=None)
def test_chip16_matches_reference(chip16, policy, jobs):
    production, reference = policies(chip16, **CHIP16)[policy]
    assert production_run(chip16, production, jobs) == reference_run(
        chip16, reference, jobs
    )


@pytest.mark.parametrize("policy", ["tdp_fifo", "tsp_adaptive"])
def test_burst_blocks_on_cores_and_on_policy(small_chip, policy):
    """The burst shape exercises both kinds of deferral on both policies."""
    jobs = burst(10)
    production, reference = policies(small_chip, **SMALL)[policy]
    deferrals = {"cores": 0, "policy": 0}

    class Counting(AdmissionPolicy):
        def admit(self, chip, job, core_powers, cores):
            decision = production.admit(chip, job, core_powers, cores)
            deferrals["policy"] += decision is None
            return decision

    class CountingCores(NeighbourhoodSpreadPlacer):
        def place(self, chip, n_cores, occupied):
            cores = super().place(chip, n_cores, occupied)
            deferrals["cores"] += cores is None
            return cores

    OnlineSimulator(small_chip, Counting(threads=4), CountingCores()).run(jobs)
    assert deferrals["cores"] > 0 and deferrals["policy"] > 0
    assert production_run(small_chip, production, jobs) == reference_run(
        small_chip, reference, jobs
    )


def test_chip16_burst_descends_the_ladder(chip16):
    """At saturation the TSP policy grants levels below the maximum."""
    production, reference = policies(chip16, **CHIP16)["tsp_adaptive"]
    jobs = burst(30)
    result = production_run(chip16, production, jobs)
    assert len({record[4] for record in result[0]}) > 1
    assert result == reference_run(chip16, reference, jobs)


def test_counting_placer_flags_a_repeated_state(small_chip):
    placer = CountingPlacer()
    placer.head = Job(job_id=0, app=PARSEC["x264"], arrival=0.0, work=1e9)
    placer.place(small_chip, 4, {1, 2})
    with pytest.raises(AssertionError, match="twice"):
        placer.place(small_chip, 4, {2, 1})
