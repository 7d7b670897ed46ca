"""Eq. (1) coefficient recovery (paper Figure 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.power import calibration
from repro.power.calibration import fit_power_model, nnls
from repro.power.leakage import LeakageModel
from repro.power.model import CorePowerModel
from repro.power.vf_curve import VFCurve
from repro.tech.library import NODE_22NM
from repro.units import GIGA, NANO


def make_truth(ceff_nf=2.0, pind=0.5, i0=0.3):
    return CorePowerModel(
        ceff=ceff_nf * NANO,
        pind=pind,
        leakage=LeakageModel(i0=i0),
        curve=VFCurve.for_node(NODE_22NM),
    )


def samples(truth, n=12, alpha=1.0, temperature=80.0):
    # Stay below the 22 nm curve's ~4.3 GHz voltage-limit ceiling.
    fs = [0.3 * GIGA + i * (3.9 - 0.3) * GIGA / (n - 1) for i in range(n)]
    ps = [truth.power(f, alpha=alpha, temperature=temperature) for f in fs]
    return fs, ps


class TestExactRecovery:
    def test_recovers_ceff(self):
        truth = make_truth()
        fs, ps = samples(truth)
        fit = fit_power_model(fs, ps, truth.curve, LeakageModel(i0=1.0))
        assert fit.model.ceff == pytest.approx(truth.ceff, rel=1e-4)

    def test_recovers_pind(self):
        truth = make_truth()
        fs, ps = samples(truth)
        fit = fit_power_model(fs, ps, truth.curve, LeakageModel(i0=1.0))
        assert fit.model.pind == pytest.approx(truth.pind, rel=1e-3)

    def test_recovers_i0(self):
        truth = make_truth()
        fs, ps = samples(truth)
        fit = fit_power_model(fs, ps, truth.curve, LeakageModel(i0=1.0))
        assert fit.model.leakage.i0 == pytest.approx(0.3, rel=1e-3)

    def test_zero_residual_on_clean_data(self):
        truth = make_truth()
        fs, ps = samples(truth)
        fit = fit_power_model(fs, ps, truth.curve, LeakageModel(i0=1.0))
        assert fit.rms_error < 1e-8

    @given(
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_coefficients(self, ceff_nf, pind, i0):
        truth = make_truth(ceff_nf=ceff_nf, pind=pind, i0=i0)
        fs, ps = samples(truth)
        fit = fit_power_model(fs, ps, truth.curve, LeakageModel(i0=1.0))
        for f in (1.0 * GIGA, 2.5 * GIGA):
            assert fit.model.power(f) == pytest.approx(truth.power(f), rel=1e-3, abs=1e-6)


class TestNoisyRecovery:
    def test_small_noise_small_error(self):
        truth = make_truth()
        fs, ps = samples(truth, n=16)
        noisy = [p * (1.0 + 0.02 * (-1) ** i) for i, p in enumerate(ps)]
        fit = fit_power_model(fs, noisy, truth.curve, LeakageModel(i0=1.0))
        assert fit.rms_error < 0.05 * max(ps)
        assert fit.model.ceff == pytest.approx(truth.ceff, rel=0.1)

    def test_alpha_respected(self):
        truth = make_truth()
        fs = [0.5 * GIGA, 1.5 * GIGA, 2.5 * GIGA, 3.5 * GIGA]
        ps = [truth.power(f, alpha=0.5) for f in fs]
        fit = fit_power_model(fs, ps, truth.curve, LeakageModel(i0=1.0), alpha=0.5)
        assert fit.model.ceff == pytest.approx(truth.ceff, rel=1e-3)


class TestValidation:
    def test_too_few_points_rejected(self):
        truth = make_truth()
        with pytest.raises(ConfigurationError, match="at least 3"):
            fit_power_model(
                [1e9, 2e9], [1.0, 2.0], truth.curve, LeakageModel(i0=1.0)
            )

    def test_mismatched_lengths_rejected(self):
        truth = make_truth()
        with pytest.raises(ConfigurationError, match="equal-length"):
            fit_power_model([1e9, 2e9, 3e9], [1.0, 2.0], truth.curve, LeakageModel(i0=1.0))

    def test_non_positive_frequency_rejected(self):
        truth = make_truth()
        with pytest.raises(ConfigurationError, match="positive"):
            fit_power_model(
                [0.0, 2e9, 3e9], [1.0, 2.0, 3.0], truth.curve, LeakageModel(i0=1.0)
            )


def _assert_matches_scipy(design, target):
    from scipy.optimize import nnls as scipy_nnls

    x = nnls(design, target)
    reference, _ = scipy_nnls(design, target)
    residual = np.linalg.norm(design @ x - target)
    expected = np.linalg.norm(design @ reference - target)
    assert np.all(x >= 0)
    assert residual == pytest.approx(expected, rel=1e-9)
    return x, reference


class TestNnls:
    def test_matches_scipy_on_badly_scaled_random_problems(self):
        rng = np.random.default_rng(2015)
        for trial in range(500):
            rows = int(rng.integers(5, 20))
            scales = 10.0 ** rng.uniform(-9, 3, size=3)
            design = rng.standard_normal((rows, 3)) * scales
            if trial % 2:
                design = np.abs(design)
            target = rng.standard_normal(rows) * 10.0 ** rng.uniform(-3, 3)
            _assert_matches_scipy(design, target)

    def test_matches_scipy_on_the_figure3_design(self, monkeypatch):
        from repro.experiments import fig03_power_fit

        seen = []

        def spy(design, target):
            seen.append((design, target))
            return nnls(design, target)

        monkeypatch.setattr(calibration, "nnls", spy)
        fig03_power_fit.run()
        (design, target), = seen
        assert design.shape == (17, 3)
        x, reference = _assert_matches_scipy(design, target)
        assert x == pytest.approx(reference, rel=1e-9, abs=1e-12 * np.max(reference))

    def test_zero_coefficient_at_the_optimum(self):
        # The target leans against column 1, so the optimum drops it.
        design = np.array(
            [[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [3.0, 1.0, 2.0], [4.0, 1.0, 3.0]]
        )
        target = design @ np.array([2.0, -3.0, 0.5])
        x, reference = _assert_matches_scipy(design, target)
        assert x[1] == 0.0 and reference[1] == 0.0

    def test_all_negative_target_gives_zero(self):
        design = np.abs(np.random.default_rng(1).standard_normal((6, 3)))
        assert np.all(nnls(design, -np.ones(6)) == 0.0)
