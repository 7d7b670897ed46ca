"""Eq. (1) core power model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.power.leakage import LeakageModel
from repro.power.model import CorePowerModel
from repro.power.vf_curve import VFCurve
from repro.tech.library import NODE_16NM, NODE_22NM
from repro.units import F_GATED, GIGA, NANO


@pytest.fixture
def model():
    return CorePowerModel(
        ceff=2.0 * NANO,
        pind=0.5,
        leakage=LeakageModel(i0=0.3),
        curve=VFCurve.for_node(NODE_22NM),
    )


class TestDynamicPower:
    def test_cubic_shape_in_frequency(self, model):
        # With V tied to f by Eq. (2), doubling f more than doubles
        # dynamic power (super-linear growth).
        p1 = model.dynamic_power(1.0 * GIGA)
        p2 = model.dynamic_power(2.0 * GIGA)
        assert p2 > 2.0 * p1

    def test_known_value(self, model):
        f = 2.0 * GIGA
        v = model.curve.voltage(f)
        assert model.dynamic_power(f) == pytest.approx(2.0e-9 * v * v * f)

    def test_alpha_scales_linearly(self, model):
        f = 2.0 * GIGA
        assert model.dynamic_power(f, alpha=0.5) == pytest.approx(
            0.5 * model.dynamic_power(f, alpha=1.0)
        )

    def test_zero_frequency(self, model):
        assert model.dynamic_power(0.0) == 0.0

    def test_invalid_alpha_rejected(self, model):
        with pytest.raises(ConfigurationError, match="alpha"):
            model.dynamic_power(1.0 * GIGA, alpha=1.5)

    def test_explicit_vdd_overrides_curve(self, model):
        f = 2.0 * GIGA
        assert model.dynamic_power(f, vdd=1.0) == pytest.approx(2.0e-9 * f)


class TestTotalPower:
    def test_gated_core_draws_inactive_power(self, model):
        assert model.power(0.0) == 0.0

    def test_inactive_power_respected(self):
        m = CorePowerModel(
            ceff=1.0 * NANO,
            pind=0.5,
            leakage=LeakageModel(i0=0.1),
            curve=VFCurve.for_node(NODE_22NM),
            inactive_power=0.2,
        )
        assert m.power(0.0) == pytest.approx(0.2)

    def test_sum_of_terms(self, model):
        f = 3.0 * GIGA
        terms = (
            model.dynamic_power(f, alpha=0.8)
            + model.leakage_power(f, temperature=70.0)
            + model.pind
        )
        assert model.power(f, alpha=0.8, temperature=70.0) == pytest.approx(terms)

    def test_breakdown_gated(self, model):
        # A gated core draws neither dynamic power nor, with the default
        # inactive_power of 0, anything else.
        assert model.dynamic_power(F_GATED) == 0.0
        assert model.power(F_GATED) == 0.0

    def test_power_increases_with_temperature(self, model):
        f = 2.0 * GIGA
        assert model.power(f, temperature=100.0) > model.power(f, temperature=60.0)

    @given(st.floats(min_value=0.1, max_value=3.8))
    @settings(max_examples=50)
    def test_power_positive_for_running_core(self, f_ghz):
        m = CorePowerModel(
            ceff=2.0 * NANO,
            pind=0.5,
            leakage=LeakageModel(i0=0.3),
            curve=VFCurve.for_node(NODE_22NM),
        )
        assert m.power(f_ghz * GIGA, alpha=0.5) > 0.0

    @given(
        st.floats(min_value=0.1, max_value=1.8),
        st.floats(min_value=1.9, max_value=3.8),
    )
    @settings(max_examples=50)
    def test_power_monotone_in_frequency(self, f_lo, f_hi):
        m = CorePowerModel(
            ceff=2.0 * NANO,
            pind=0.5,
            leakage=LeakageModel(i0=0.3),
            curve=VFCurve.for_node(NODE_22NM),
        )
        assert m.power(f_hi * GIGA) > m.power(f_lo * GIGA)


class TestNodeScaling:
    def test_ceff_scales_with_capacitance(self):
        m = CorePowerModel.at_node(
            NODE_16NM, ceff_22nm=2.0 * NANO, pind_22nm=0.5,
            leakage_22nm=LeakageModel(i0=0.3),
        )
        assert m.ceff == pytest.approx(2.0e-9 * 0.64)

    def test_pind_scales_with_cap_and_vdd_squared(self):
        m = CorePowerModel.at_node(
            NODE_16NM, ceff_22nm=2.0 * NANO, pind_22nm=0.5,
            leakage_22nm=LeakageModel(i0=0.3),
        )
        assert m.pind == pytest.approx(0.5 * 0.64 * 0.89**2)

    def test_curve_is_node_curve(self):
        m = CorePowerModel.at_node(
            NODE_16NM, ceff_22nm=2.0 * NANO, pind_22nm=0.5,
            leakage_22nm=LeakageModel(i0=0.3),
        )
        assert m.curve.f_nominal == pytest.approx(NODE_16NM.f_max)

    def test_scaling_reduces_power_at_iso_frequency(self):
        m22 = CorePowerModel(
            ceff=2.0 * NANO, pind=0.5,
            leakage=LeakageModel(i0=0.3), curve=VFCurve.for_node(NODE_22NM),
        )
        m16 = CorePowerModel.at_node(
            NODE_16NM, ceff_22nm=2.0 * NANO, pind_22nm=0.5,
            leakage_22nm=LeakageModel(i0=0.3),
        )
        f = 2.0 * GIGA
        assert m16.power(f) < m22.power(f)


class TestValidation:
    def test_zero_ceff_rejected(self):
        with pytest.raises(ConfigurationError, match="ceff"):
            CorePowerModel(
                ceff=0.0, pind=0.5,
                leakage=LeakageModel(i0=0.3), curve=VFCurve.for_node(NODE_22NM),
            )

    def test_negative_pind_rejected(self):
        with pytest.raises(ConfigurationError, match="pind"):
            CorePowerModel(
                ceff=1e-9, pind=-0.1,
                leakage=LeakageModel(i0=0.3), curve=VFCurve.for_node(NODE_22NM),
            )

    def test_negative_inactive_power_rejected(self):
        with pytest.raises(ConfigurationError, match="inactive_power"):
            CorePowerModel(
                ceff=1e-9, pind=0.1, inactive_power=-0.1,
                leakage=LeakageModel(i0=0.3), curve=VFCurve.for_node(NODE_22NM),
            )
