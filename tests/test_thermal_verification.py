"""Analytic verification of the compact thermal model.

A simulator substituting HotSpot should demonstrate it gets the physics
it claims to get.  The helpers below are closed-form references the RC
model must reproduce, and the tests check the model against them:

* :func:`analytic_column_resistance` — the junction-to-ambient thermal
  resistance of a uniformly powered die, computed by hand from the stack
  geometry (series slabs + distributed convection).  Uniform heating
  makes lateral conduction carry no net heat inside the die footprint,
  so the RC solution must match the 1-D series path through the die
  region plus the parallel spillover through the package periphery —
  i.e. sit *at or below* the no-periphery series bound.
* :func:`uniform_power_peak` — the RC model's peak temperature under
  uniform per-core power, the quantity the bound constrains.
* :func:`resolution_study` — block-size convergence: the same silicon,
  power density and package, discretised at 1x1 .. rxr blocks; the peak
  temperature must converge as the mesh refines (HotSpot's block-vs-grid
  mode argument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.floorplan.generator import grid_floorplan
from repro.thermal.builder import build_thermal_model
from repro.thermal.config import PAPER_THERMAL_CONFIG, ThermalConfig
from repro.units import mm2


def analytic_column_resistance(
    config: ThermalConfig, die_area: float
) -> float:
    """Series junction-to-ambient resistance of a uniformly heated die.

    Ignores the spreader/sink periphery (all heat forced straight down
    through the die footprint), so it is an *upper bound* on the true
    resistance: the real package also conducts outward through the
    periphery rings.

    Args:
        config: package configuration.
        die_area: heated die area, m^2.

    Returns:
        Resistance in K/W.
    """
    if die_area <= 0:
        raise ConfigurationError(f"die_area must be positive, got {die_area}")
    r_si = config.die_thickness / (config.silicon_conductivity * die_area)
    r_tim = config.tim_thickness / (config.tim_conductivity * die_area)
    r_spr = config.spreader_thickness / (config.metal_conductivity * die_area)
    r_snk = config.sink_thickness / (config.metal_conductivity * die_area)
    # Convection acts over the whole sink; under the straight-down
    # assumption the die-footprint share carries everything, scaled by
    # the area ratio.
    r_conv = config.convection_resistance * (config.sink_side**2 / die_area)
    return r_si + r_tim + r_spr + r_snk + r_conv


def analytic_spreading_resistance(
    config: ThermalConfig, die_area: float
) -> float:
    """Junction-to-ambient resistance with *perfect* lateral spreading.

    The opposite idealisation of :func:`analytic_column_resistance`: the
    thick copper spreads the heat over the whole sink before convection,
    so the convection term is the configured 0.1 K/W unscaled.  This is
    a *lower bound* on the true resistance — real spreading is finite.

    Args:
        config: package configuration.
        die_area: heated die area, m^2.

    Returns:
        Resistance in K/W.
    """
    if die_area <= 0:
        raise ConfigurationError(f"die_area must be positive, got {die_area}")
    r_si = config.die_thickness / (config.silicon_conductivity * die_area)
    r_tim = config.tim_thickness / (config.tim_conductivity * die_area)
    r_spr = config.spreader_thickness / (config.metal_conductivity * die_area)
    r_snk = config.sink_thickness / (config.metal_conductivity * die_area)
    return r_si + r_tim + r_spr + r_snk + config.convection_resistance


def uniform_power_peak(
    rows: int,
    cols: int,
    core_area: float,
    per_core_power: float,
    config: ThermalConfig = PAPER_THERMAL_CONFIG,
) -> float:
    """RC-model peak temperature of a uniformly powered core grid, degC."""
    model = build_thermal_model(grid_floorplan(rows, cols, core_area), config)
    return float(
        np.max(model.core_steady_state([per_core_power] * (rows * cols)))
    )


@dataclass(frozen=True)
class ResolutionPoint:
    """One mesh resolution of the convergence study.

    Attributes:
        blocks_per_side: die discretisation (r x r blocks).
        peak_temperature: steady-state peak, degC.
    """

    blocks_per_side: int
    peak_temperature: float


def resolution_study(
    die_area: float,
    total_power: float,
    resolutions: tuple[int, ...] = (1, 2, 4, 8),
    config: ThermalConfig = PAPER_THERMAL_CONFIG,
) -> list[ResolutionPoint]:
    """Discretise one uniformly powered die at several block sizes.

    The physical problem is identical at every resolution (same silicon,
    same power density, same package); only the mesh changes.  A sound
    compact model's peak temperature must move little — and
    monotonically settle — as the mesh refines.

    Args:
        die_area: total die area, m^2.
        total_power: total dissipated power, W (spread uniformly).
        resolutions: block counts per die side to evaluate.
        config: package configuration.

    Returns:
        One point per resolution, in the given order.
    """
    if die_area <= 0 or total_power < 0:
        raise ConfigurationError("die_area must be positive, power non-negative")
    points = []
    for r in resolutions:
        if r < 1:
            raise ConfigurationError(f"resolution must be >= 1, got {r}")
        block_area = die_area / (r * r)
        per_block = total_power / (r * r)
        points.append(
            ResolutionPoint(
                blocks_per_side=r,
                peak_temperature=uniform_power_peak(
                    r, r, block_area, per_block, config
                ),
            )
        )
    return points


class TestAnalyticBound:
    def test_rc_model_within_analytic_bound(self):
        """Uniformly heated die: the RC peak must lie below the
        straight-down series bound (the periphery only helps) and above
        the pure-convection floor."""
        cfg = PAPER_THERMAL_CONFIG
        die_area = 100 * mm2(5.1)  # the paper's 16 nm die
        total_power = 200.0
        per_core = total_power / 100

        peak = uniform_power_peak(10, 10, mm2(5.1), per_core, cfg)
        upper = cfg.ambient + total_power * analytic_column_resistance(cfg, die_area)
        lower = cfg.ambient + total_power * analytic_spreading_resistance(
            cfg, die_area
        )
        assert lower < peak < upper

    def test_close_to_full_spreading_bound(self):
        """The thick copper sink spreads well: the RC solution should sit
        within ~30 % of the perfect-spreading lower bound, far from the
        no-spreading upper bound."""
        cfg = PAPER_THERMAL_CONFIG
        die_area = 100 * mm2(5.1)
        total_power = 200.0
        peak_rise = (
            uniform_power_peak(10, 10, mm2(5.1), total_power / 100, cfg)
            - cfg.ambient
        )
        lower_rise = total_power * analytic_spreading_resistance(cfg, die_area)
        upper_rise = total_power * analytic_column_resistance(cfg, die_area)
        assert peak_rise / lower_rise < 1.3
        assert peak_rise / upper_rise < 0.5

    def test_bound_ordering(self):
        cfg = PAPER_THERMAL_CONFIG
        area = mm2(500)
        assert analytic_spreading_resistance(cfg, area) < analytic_column_resistance(
            cfg, area
        )

    def test_resistance_components_positive(self):
        r = analytic_column_resistance(PAPER_THERMAL_CONFIG, mm2(500))
        assert r > PAPER_THERMAL_CONFIG.convection_resistance

    def test_invalid_area_rejected(self):
        with pytest.raises(ConfigurationError, match="die_area"):
            analytic_column_resistance(PAPER_THERMAL_CONFIG, 0.0)


class TestLinearityInPower:
    def test_temperature_rise_proportional_to_power(self):
        cfg = PAPER_THERMAL_CONFIG
        rise_1 = uniform_power_peak(5, 5, mm2(5.1), 1.0, cfg) - cfg.ambient
        rise_3 = uniform_power_peak(5, 5, mm2(5.1), 3.0, cfg) - cfg.ambient
        assert rise_3 == pytest.approx(3.0 * rise_1, rel=1e-9)


class TestResolutionConvergence:
    @pytest.fixture(scope="class")
    def study(self):
        return resolution_study(
            die_area=mm2(400), total_power=150.0, resolutions=(1, 2, 4, 8)
        )

    def test_all_resolutions_evaluated(self, study):
        assert [p.blocks_per_side for p in study] == [1, 2, 4, 8]

    def test_peaks_converge(self, study):
        """Successive refinements change the peak less and less."""
        peaks = [p.peak_temperature for p in study]
        deltas = [abs(b - a) for a, b in zip(peaks, peaks[1:])]
        assert deltas[-1] < deltas[0] + 1e-9
        # The 4->8 step moves the peak by less than half a kelvin.
        assert deltas[-1] < 0.5

    def test_refinement_resolves_the_hot_centre(self, study):
        """From 2x2 on, finer meshes expose the centre hot spot, so the
        peak grows monotonically.  (The 1x1 mesh is a special case: the
        single lumped node over-serialises the vertical path and lands
        *above* the converged value.)"""
        peaks = [p.peak_temperature for p in study]
        assert peaks[1:] == sorted(peaks[1:])

    def test_coarse_fine_agree_within_a_few_kelvin(self, study):
        peaks = [p.peak_temperature for p in study]
        assert abs(peaks[-1] - peaks[0]) < 5.0

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ConfigurationError, match="resolution"):
            resolution_study(mm2(400), 100.0, resolutions=(0,))

    def test_invalid_area_rejected(self):
        with pytest.raises(ConfigurationError):
            resolution_study(-1.0, 100.0)
