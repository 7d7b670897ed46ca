"""Sweep runner: serial/parallel execution and its registry metrics."""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.perf import SweepRunner


def _square(x):
    """Module-level so the parallel path can pickle it."""
    return x * x


def _instrumented_square(x):
    """Picklable cell that also reports to the global registry."""
    obs.incr("testsweep.cell_calls")
    return x * x


def _spanned_square(x):
    """Picklable cell recording a histogram sample and a span."""
    obs.histogram("testsweep.values", float(x))
    with obs.span("cell"):
        pass
    return x * x


class TestSerial:
    def test_preserves_order(self):
        runner = SweepRunner()
        assert runner.map([3, 1, 2], _square) == [9, 1, 4]

    def test_not_parallel_by_default(self):
        assert not SweepRunner().parallel
        assert not SweepRunner(max_workers=1).parallel

    def test_metrics_recorded(self, global_obs):
        SweepRunner().map([1, 2, 3], _square, stage="demo")
        snap = obs.snapshot()
        assert snap["counters"]["sweep.cells"] == 3
        assert snap["spans"]["sweep.demo"]["count"] == 1
        assert snap["spans"]["sweep.demo"]["total_s"] >= 0.0

    def test_stage_counters_accumulate(self, global_obs):
        runner = SweepRunner()
        runner.map([1], _square, stage="demo")
        runner.map([2, 3], _square, stage="demo")
        snap = obs.snapshot()
        assert snap["counters"]["sweep.cells"] == 3
        assert snap["spans"]["sweep.demo"]["count"] == 2

    def test_empty_grid(self):
        runner = SweepRunner()
        assert runner.map([], _square) == []


class TestParallel:
    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            SweepRunner(max_workers=0)

    def test_parallel_flag(self):
        assert SweepRunner(max_workers=2).parallel

    def test_parallel_map_matches_serial(self):
        runner = SweepRunner(max_workers=2)
        assert runner.map([4, 5, 6], _square, stage="par") == [16, 25, 36]

    def test_single_cell_stays_in_process(self):
        # One cell is not worth a worker pool; the result must match.
        runner = SweepRunner(max_workers=4)
        assert runner.map([7], _square) == [49]


class TestConcurrencyObservability:
    """workers=1 vs workers=4: identical results, merged registry."""

    CELLS = list(range(8))

    def test_parallel_matches_serial_results_and_counters(self, global_obs):
        serial = SweepRunner(max_workers=1)
        serial_results = serial.map(self.CELLS, _instrumented_square, stage="smoke")
        serial_snap = obs.snapshot()

        obs.reset()
        par = SweepRunner(max_workers=4)
        par_results = par.map(self.CELLS, _instrumented_square, stage="smoke")
        par_snap = obs.snapshot()

        assert par_results == serial_results
        # Same totals regardless of execution mode: the per-worker deltas
        # must have been merged back, not lost with the pool.
        assert (
            par_snap["counters"]["testsweep.cell_calls"]
            == serial_snap["counters"]["testsweep.cell_calls"]
            == len(self.CELLS)
        )
        assert par_snap["counters"]["sweep.cells"] == len(self.CELLS)
        assert par_snap["spans"]["sweep.smoke"]["count"] == 1

    def test_worker_deltas_merge_instead_of_clobbering(self, global_obs):
        # Counts present in the parent *before* the sweep must survive it:
        # forked workers inherit them, and a naive "copy the worker's
        # registry back" would double- or over-write them.
        obs.incr("testsweep.cell_calls", 100)
        runner = SweepRunner(max_workers=4)
        runner.map(self.CELLS, _instrumented_square, stage="merge")
        assert obs.snapshot()["counters"]["testsweep.cell_calls"] == 100 + len(
            self.CELLS
        )

    def test_runner_metrics_agree_across_modes(self, global_obs):
        snaps = []
        for workers in (1, 4):
            obs.reset()
            SweepRunner(max_workers=workers).map(
                self.CELLS, _instrumented_square, stage="m"
            )
            snaps.append(obs.snapshot())
        for snap in snaps:
            assert snap["counters"]["sweep.cells"] == len(self.CELLS)
            assert snap["spans"]["sweep.m"]["count"] == 1

    def test_parallel_histograms_and_spans_merge_exactly(self, global_obs):
        serial = SweepRunner(max_workers=1)
        serial.map(self.CELLS, _spanned_square, stage="h")
        serial_snap = obs.snapshot()

        obs.reset()
        par = SweepRunner(max_workers=4)
        par.map(self.CELLS, _spanned_square, stage="h")
        par_snap = obs.snapshot()

        # Count, sum, extremes and buckets all come home from workers.
        assert (
            par_snap["histograms"]["testsweep.values"]
            == serial_snap["histograms"]["testsweep.values"]
        )
        # Every worker's cell span comes home (its path depends on the
        # start method: a forked worker inherits the parent's stack).
        for snap in (serial_snap, par_snap):
            cells = [a for p, a in snap["spans"].items() if p.endswith("cell")]
            assert sum(a["count"] for a in cells) == len(self.CELLS)

    def test_parallel_with_obs_disabled_still_correct(self):
        assert not obs.enabled()
        runner = SweepRunner(max_workers=4)
        assert runner.map([2, 3, 4], _square) == [4, 9, 16]
