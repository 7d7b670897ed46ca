"""Smoke + shape tests for every experiment module (fast parameters).

The full-fidelity runs and the paper-shape assertions live in
``benchmarks/``; these tests exercise the experiment APIs with reduced
parameter sets so the plain test suite covers the modules quickly.
"""

import pytest

from repro.experiments import (
    fig05_tdp_dark_silicon,
    fig06_temperature_constraint,
    fig07_dvfs,
    fig08_patterning,
    fig09_dsrem,
    fig10_tsp,
    fig11_boosting_transient,
    fig12_boosting_sweep,
    fig13_boosting_apps,
    fig14_ntc,
)
from repro.units import GIGA


class TestFig5:
    def test_reduced_run(self):
        result = fig05_tdp_dark_silicon.run(
            app_names=("x264", "swaptions"),
            frequencies=(3.2 * GIGA, 3.6 * GIGA),
        )
        assert set(result.sweeps) == {220.0, 185.0}
        assert len(result.rows()) == 2 * 2 * 2
        assert result.max_dark_fraction(185.0) >= result.max_dark_fraction(220.0)

    def test_table_renders(self):
        result = fig05_tdp_dark_silicon.run(
            app_names=("x264",), frequencies=(3.6 * GIGA,)
        )
        assert "x264" in result.table()


class TestFig6:
    def test_reduced_run(self):
        result = fig06_temperature_constraint.run(
            node_names=("16nm",), app_names=("swaptions", "canneal")
        )
        (node,) = result.nodes
        assert set(node.per_app) == {"swaptions", "canneal"}
        assert node.average_reduction >= 0.0


class TestFig7:
    def test_reduced_run(self):
        result = fig07_dvfs.run(node_names=("16nm",), app_names=("x264",))
        (node,) = result.nodes
        (app,) = node.apps
        assert app.gain >= 0.0
        assert "x264" in result.table()


class TestFig8:
    def test_run(self, chip16):
        result = fig08_patterning.run(chip=chip16)
        assert result.patterned.active_cores >= result.contiguous_safe.active_cores
        assert result.patterned.thermal_map.shape == (10, 10)
        assert len(result.rows()) == 3


class TestFig9:
    def test_reduced_run(self, chip16):
        result = fig09_dsrem.run(chip=chip16, workloads=[("canneal",)])
        (entry,) = result.entries
        assert entry.speedup > 1.0
        assert result.average_speedup == entry.speedup


class TestFig10:
    def test_custom_shares(self):
        result = fig10_tsp.run(
            dark_shares={"16nm": 0.5}, app_names=("x264",)
        )
        node = result.node("16nm")
        assert node.active_cores == 48  # 50 % of 100, rounded to 8-thread instances
        assert node.apps[0].per_core_power <= node.tsp_per_core + 1e-9


class TestFig11:
    def test_short_run(self, chip16):
        result = fig11_boosting_transient.run(chip=chip16, duration=0.5)
        assert result.boosting.average_gips > 0
        assert result.constant.average_gips > 0
        assert len(result.rows()) == 2


class TestFig12:
    def test_two_points(self, chip16):
        result = fig12_boosting_sweep.run(
            chip=chip16, core_counts=(8, 16), duration=0.3
        )
        assert [p.active_cores for p in result.points] == [8, 16]
        assert result.points[1].constant_gips > result.points[0].constant_gips

    def test_sub_instance_counts_skipped(self, chip16):
        result = fig12_boosting_sweep.run(
            chip=chip16, core_counts=(4, 8), duration=0.3
        )
        # 4 cores cannot hold an 8-thread instance.
        assert [p.active_cores for p in result.points] == [8]


class TestFig13:
    def test_reduced_run(self, chip11):
        result = fig13_boosting_apps.run(
            chip=chip11,
            app_names=("canneal",),
            instance_counts=(12,),
            duration=0.3,
        )
        (case,) = result.cases
        assert case.app == "canneal"
        assert result.min_frequency == case.constant_frequency


class TestFig14:
    def test_full_run_is_fast(self):
        result = fig14_ntc.run()
        assert len(result.points) == 21
        assert not result.ntc_wins("canneal")
        # x264's NTC point beats at least the single-thread STC scheme
        # (the strict all-schemes claim lives in the benchmark).
        schemes = result.by_app("x264")
        assert schemes["ntc"].energy_kj < schemes["stc-1t"].energy_kj
