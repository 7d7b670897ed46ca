"""The online runtime: jobs, policies, event loop."""

import dataclasses

import numpy as np
import pytest

from repro.apps.parsec import PARSEC
from repro.chip import Chip
from repro.core.tsp import ThermalSafePower
from repro.errors import ConfigurationError
from repro.runtime import (
    AdmissionDecision,
    Job,
    OnlineSimulator,
    RuntimeResult,
    TdpFifoPolicy,
    TspAdaptivePolicy,
    deterministic_job_stream,
)
from repro.tech.library import NODE_11NM, NODE_16NM
from repro.units import GIGA


def make_job(job_id=0, app="x264", arrival=0.0, work=50e9, max_threads=8):
    return Job(
        job_id=job_id,
        app=PARSEC[app],
        arrival=arrival,
        work=work,
        max_threads=max_threads,
    )


class TestJob:
    def test_duration(self):
        job = make_job(work=100e9)
        app = PARSEC["x264"]
        rate = app.instance_performance(4, 2.0 * GIGA)
        assert job.duration(4, 2.0 * GIGA) == pytest.approx(100e9 / rate)

    def test_more_threads_run_faster(self):
        job = make_job()
        assert job.duration(8, 2.0 * GIGA) < job.duration(1, 2.0 * GIGA)

    def test_invalid_work_rejected(self):
        with pytest.raises(ConfigurationError, match="work"):
            make_job(work=0.0)

    def test_invalid_arrival_rejected(self):
        with pytest.raises(ConfigurationError, match="arrival"):
            make_job(arrival=-1.0)

    def test_max_threads_capped_by_app(self):
        with pytest.raises(ConfigurationError, match="max_threads"):
            make_job(max_threads=9)


class TestJobStream:
    def test_deterministic(self):
        apps = [PARSEC["x264"], PARSEC["canneal"]]
        a = deterministic_job_stream(apps, 10, 1.0, 50e9, seed=4)
        b = deterministic_job_stream(apps, 10, 1.0, 50e9, seed=4)
        assert [(j.arrival, j.app.name) for j in a] == [
            (j.arrival, j.app.name) for j in b
        ]

    def test_arrivals_increasing(self):
        jobs = deterministic_job_stream([PARSEC["x264"]], 20, 1.0, 50e9)
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_unique_ids(self):
        jobs = deterministic_job_stream([PARSEC["x264"]], 15, 1.0, 50e9)
        assert len({j.job_id for j in jobs}) == 15

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            deterministic_job_stream([], 5, 1.0, 50e9)


class TestTdpFifoPolicy:
    def test_admits_on_idle_chip(self, small_chip):
        policy = TdpFifoPolicy(tdp=50.0, threads=4)
        decision = policy.admit(small_chip, make_job(), np.zeros(16), [0, 1, 2, 3])
        assert decision is not None
        assert decision.threads == 4
        assert decision.frequency == pytest.approx(small_chip.node.f_max)

    def test_defers_when_power_full(self, small_chip):
        policy = TdpFifoPolicy(tdp=10.0, threads=4)
        powers = np.zeros(16)
        powers[:8] = 1.2  # 9.6 W of 10 W used
        assert policy.admit(small_chip, make_job(), powers, [8, 9, 10, 11]) is None

    def test_threads_for_respects_job_cap(self, small_chip):
        policy = TdpFifoPolicy(tdp=100.0, threads=8)
        assert policy.threads_for(make_job(max_threads=2)) == 2
        assert policy.threads_for(make_job(max_threads=8)) == 8

    def test_shared_policy_uses_each_chips_node(self, small_chip):
        """Regression: per-core powers were memoised per node *name*, so a
        policy that had seen the 16 nm chip reused its powers on another
        node called "16nm" and wrongly deferred this admission."""
        hybrid = Chip.grid_chip(
            dataclasses.replace(NODE_16NM, factors=NODE_11NM.factors), 4, 4
        )
        cores = list(range(8))
        shared = TdpFifoPolicy(tdp=15.0)
        assert shared.admit(small_chip, make_job(), np.zeros(16), cores) is None
        fresh = TdpFifoPolicy(tdp=15.0).admit(hybrid, make_job(), np.zeros(16), cores)
        assert fresh is not None
        assert shared.admit(hybrid, make_job(), np.zeros(16), cores) == fresh

    def test_invalid_tdp_rejected(self):
        with pytest.raises(ConfigurationError):
            TdpFifoPolicy(tdp=0.0)

    def test_invalid_threads_rejected(self):
        with pytest.raises(ConfigurationError, match="threads"):
            TdpFifoPolicy(tdp=100.0, threads=0)


class TestTspAdaptivePolicy:
    @pytest.fixture(scope="class")
    def policy(self, small_chip):
        return TspAdaptivePolicy(ThermalSafePower(small_chip), threads=4)

    def test_admits_on_idle_chip(self, small_chip, policy):
        decision = policy.admit(small_chip, make_job(), np.zeros(16), [0, 1, 2, 3])
        assert decision is not None

    def test_granted_state_is_thermally_safe(self, small_chip, policy):
        cores = [5, 6, 9, 10]  # the hottest (central) placement
        decision = policy.admit(small_chip, make_job(), np.zeros(16), cores)
        per_core = PARSEC["x264"].core_power(
            small_chip.node, decision.threads, decision.frequency,
            temperature=small_chip.t_dtm,
        )
        powers = np.zeros(16)
        powers[cores] = per_core
        assert small_chip.solver.peak_temperature(powers) <= small_chip.t_dtm + 1e-6

    def test_busier_chip_gets_lower_or_equal_frequency(self, small_chip, policy):
        cores = [12, 13, 14, 15]
        idle = policy.admit(small_chip, make_job(), np.zeros(16), cores)
        powers = np.zeros(16)
        powers[:12] = 4.5
        busy = policy.admit(small_chip, make_job(), powers, cores)
        if busy is not None:
            assert busy.frequency <= idle.frequency

    def test_mixed_frequency_state_verified_exactly(self, small_chip, policy):
        """Regression: earlier admissions running above the TSP budget
        must be accounted for — the policy verifies the actual state, so
        the granted level keeps the *combined* chip below T_DTM."""
        powers = np.zeros(16)
        powers[:8] = 5.0  # hot earlier admissions
        cores = [8, 9, 10, 11]
        decision = policy.admit(small_chip, make_job(), powers, cores)
        if decision is not None:
            per_core = PARSEC["x264"].core_power(
                small_chip.node, decision.threads, decision.frequency,
                temperature=small_chip.t_dtm,
            )
            combined = powers.copy()
            combined[cores] += per_core
            assert (
                small_chip.solver.peak_temperature(combined)
                <= small_chip.t_dtm + 1e-6
            )

    def test_safety_margin_respected(self, small_chip):
        tight = TspAdaptivePolicy(
            ThermalSafePower(small_chip), threads=4, safety_margin=30.0
        )
        cores = [0, 1, 2, 3]
        decision = tight.admit(small_chip, make_job(), np.zeros(16), cores)
        if decision is not None:
            per_core = PARSEC["x264"].core_power(
                small_chip.node, decision.threads, decision.frequency,
                temperature=small_chip.t_dtm,
            )
            powers = np.zeros(16)
            powers[cores] = per_core
            assert (
                small_chip.solver.peak_temperature(powers)
                <= small_chip.t_dtm - 30.0 + 1e-6
            )


class TestSimulator:
    @pytest.fixture(scope="class")
    def stream(self):
        apps = [PARSEC["x264"], PARSEC["canneal"]]
        return deterministic_job_stream(apps, 12, 0.5, 30e9, seed=9)

    def test_all_jobs_complete(self, small_chip, stream):
        result = OnlineSimulator(small_chip, TdpFifoPolicy(tdp=40.0, threads=4)).run(
            stream
        )
        assert len(result.records) == len(stream)

    def test_records_consistent(self, small_chip, stream):
        result = OnlineSimulator(small_chip, TdpFifoPolicy(tdp=40.0, threads=4)).run(
            stream
        )
        for record in result.records:
            assert record.start >= record.job.arrival
            assert record.finish > record.start
            assert record.waiting_time >= 0
            assert len(record.cores) == record.threads
            expected = record.job.duration(record.threads, record.frequency)
            assert record.finish - record.start == pytest.approx(expected)

    def test_makespan_is_last_finish(self, small_chip, stream):
        result = OnlineSimulator(small_chip, TdpFifoPolicy(tdp=40.0, threads=4)).run(
            stream
        )
        assert result.makespan == pytest.approx(
            max(r.finish for r in result.records)
        )

    def test_energy_positive_and_bounded(self, small_chip, stream):
        result = OnlineSimulator(small_chip, TdpFifoPolicy(tdp=40.0, threads=4)).run(
            stream
        )
        assert result.energy > 0
        # Energy cannot exceed TDP * makespan.
        assert result.energy <= 40.0 * result.makespan + 1e-6

    def test_utilisation_in_unit_interval(self, small_chip, stream):
        result = OnlineSimulator(small_chip, TdpFifoPolicy(tdp=40.0, threads=4)).run(
            stream
        )
        assert 0.0 < result.utilisation <= 1.0

    def test_tsp_policy_thermally_safe_throughout(self, small_chip, stream):
        policy = TspAdaptivePolicy(ThermalSafePower(small_chip), threads=4)
        result = OnlineSimulator(small_chip, policy).run(stream)
        assert result.max_peak_temperature <= small_chip.t_dtm + 1e-6
        assert len(result.records) == len(stream)

    def test_serialisation_under_tiny_budget(self, small_chip):
        """A budget fitting one job at a time serialises execution."""
        jobs = [make_job(job_id=i, arrival=0.0, work=20e9) for i in range(3)]
        per_core = PARSEC["x264"].core_power(
            small_chip.node, 4, small_chip.node.f_max, temperature=80.0
        )
        policy = TdpFifoPolicy(tdp=4 * per_core * 1.2, threads=4)
        result = OnlineSimulator(small_chip, policy).run(jobs)
        starts = sorted(r.start for r in result.records)
        finishes = sorted(r.finish for r in result.records)
        # Each next job starts exactly when the previous one finishes.
        assert starts[1] == pytest.approx(finishes[0])
        assert starts[2] == pytest.approx(finishes[1])

    def test_never_admissible_job_detected(self, small_chip):
        jobs = [make_job(job_id=0)]
        policy = TdpFifoPolicy(tdp=0.5, threads=4)  # one core alone exceeds
        with pytest.raises(ConfigurationError, match="never"):
            OnlineSimulator(small_chip, policy).run(jobs)

    def test_empty_stream_rejected(self, small_chip):
        # Regression: an empty stream used to produce a degenerate result
        # whose mean latencies were nan (with a NumPy warning).
        policy = TdpFifoPolicy(tdp=40.0, threads=4)
        with pytest.raises(ConfigurationError, match="empty"):
            OnlineSimulator(small_chip, policy).run([])

    def test_empty_result_means_are_zero(self, small_chip):
        import warnings

        empty = RuntimeResult(
            records=(),
            makespan=0.0,
            energy=0.0,
            max_peak_temperature=small_chip.ambient,
            core_seconds=0.0,
            n_cores=small_chip.n_cores,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert empty.mean_response_time == 0.0
            assert empty.mean_waiting_time == 0.0
            assert empty.throughput_gips == 0.0
            assert empty.utilisation == 0.0

    def test_policy_thread_mismatch_detected(self, small_chip):
        # Regression: a policy whose admit() grants a thread count other
        # than the placement it was shown used to be accepted silently,
        # charging per-core power to the wrong number of cores.
        class SplitBrainPolicy(TdpFifoPolicy):
            def admit(self, chip, job, core_powers, cores):
                decision = super().admit(chip, job, core_powers, cores)
                if decision is None:
                    return None
                return AdmissionDecision(
                    threads=decision.threads + 1, frequency=decision.frequency
                )

        policy = SplitBrainPolicy(tdp=40.0, threads=4)
        with pytest.raises(ConfigurationError, match="must agree"):
            OnlineSimulator(small_chip, policy).run([make_job()])

    def test_fifo_order_preserved(self, small_chip):
        """Head-of-line blocking: a big job queued first runs before a
        small one queued second even when the small one would fit."""
        big = make_job(job_id=0, app="swaptions", arrival=0.0, work=40e9)
        small = make_job(job_id=1, app="canneal", arrival=0.0, work=5e9)
        per_core = PARSEC["swaptions"].core_power(
            small_chip.node, 4, small_chip.node.f_max, temperature=80.0
        )
        policy = TdpFifoPolicy(tdp=4 * per_core * 1.1, threads=4)
        result = OnlineSimulator(small_chip, policy).run([big, small])
        by_id = {r.job.job_id: r for r in result.records}
        assert by_id[0].start <= by_id[1].start
