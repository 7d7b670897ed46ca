"""White-box tests of the DsRem heuristic's three phases."""

import pytest

from repro.apps.parsec import PARSEC
from repro.errors import ConfigurationError
from repro.mapping.dsrem import DsRemConfig, ds_rem
from repro.units import GIGA

COARSE = DsRemConfig(frequencies=[2.0 * GIGA, 2.8 * GIGA, 3.6 * GIGA])


class TestBudgetPhase:
    def test_seed_respects_tdp_before_exploit(self, small_chip):
        """With exploitation disabled (tiny margin makes it a no-op is
        not possible; instead use a huge margin so the exploit phase
        never fires) the final power stays at or below the TDP seed."""
        cfg = DsRemConfig(
            frequencies=[2.0 * GIGA, 2.8 * GIGA, 3.6 * GIGA],
            exploit_margin=1000.0,  # exploit never engages
        )
        tdp = 15.0
        result = ds_rem(small_chip, [PARSEC["x264"]], tdp=tdp, config=cfg)
        assert result.total_power <= tdp + 1e-6

    def test_density_greedy_prefers_efficient_configs(self, small_chip):
        """Under a tight budget the chosen configs are not all at max
        frequency (max-f has the worst GIPS/W density)."""
        cfg = DsRemConfig(
            frequencies=[2.0 * GIGA, 2.8 * GIGA, 3.6 * GIGA],
            exploit_margin=1000.0,
        )
        result = ds_rem(small_chip, [PARSEC["swaptions"]], tdp=10.0, config=cfg)
        freqs = {p.instance.frequency for p in result.placed}
        assert freqs  # something was placed
        assert min(freqs) < 3.6 * GIGA


class TestRepairPhase:
    def test_violating_seed_is_repaired(self, small_chip):
        """A TDP far above the thermal capacity seeds a violating
        mapping; the repair phase must bring it under T_DTM."""
        result = ds_rem(
            small_chip, [PARSEC["swaptions"]], tdp=500.0, config=COARSE
        )
        assert result.peak_temperature <= small_chip.t_dtm + 1e-6


class TestExploitPhase:
    def test_grows_beyond_a_starved_seed(self, small_chip):
        starved = ds_rem(small_chip, [PARSEC["x264"]], tdp=2.0, config=COARSE)
        assert starved.total_power > 2.0
        assert starved.peak_temperature <= small_chip.t_dtm + 1e-6

    def test_margin_limits_exploitation(self, small_chip):
        eager = ds_rem(
            small_chip, [PARSEC["x264"]], tdp=10.0,
            config=DsRemConfig(
                frequencies=COARSE.frequencies, exploit_margin=0.25
            ),
        )
        shy = ds_rem(
            small_chip, [PARSEC["x264"]], tdp=10.0,
            config=DsRemConfig(
                frequencies=COARSE.frequencies, exploit_margin=15.0
            ),
        )
        assert shy.peak_temperature <= eager.peak_temperature + 1e-9
        assert shy.gips <= eager.gips + 1e-9


class TestEndToEnd:
    def test_result_internally_consistent(self, small_chip):
        result = ds_rem(
            small_chip, [PARSEC["x264"], PARSEC["canneal"]], tdp=25.0,
            config=COARSE,
        )
        cores = [c for p in result.placed for c in p.cores]
        assert len(cores) == len(set(cores))
        assert result.active_cores == len(cores)
        assert result.total_power == pytest.approx(result.core_powers.sum())
        assert result.rejected == ()

    def test_custom_thread_options(self, small_chip):
        cfg = DsRemConfig(
            threads_options=[4], frequencies=[2.8 * GIGA, 3.6 * GIGA]
        )
        result = ds_rem(small_chip, [PARSEC["dedup"]], tdp=20.0, config=cfg)
        assert all(p.instance.threads == 4 for p in result.placed)


class TestConfigValidation:
    """A config that would silently map nothing, or skip the upgrade,
    repair and exploit loops, is rejected when it is built."""

    @pytest.mark.parametrize("threads_options", [(), [0, 4], (-1,)])
    def test_threads_options_must_be_positive_counts(self, threads_options):
        with pytest.raises(ConfigurationError, match="threads_options"):
            DsRemConfig(threads_options=threads_options)

    @pytest.mark.parametrize("frequencies", [(), []])
    def test_frequencies_must_be_non_empty(self, frequencies):
        with pytest.raises(ConfigurationError, match="frequencies"):
            DsRemConfig(frequencies=frequencies)

    @pytest.mark.parametrize("max_steps", [-1, 0])
    def test_max_steps_must_be_positive(self, max_steps):
        with pytest.raises(ConfigurationError, match="max_steps"):
            DsRemConfig(max_steps=max_steps)

    @pytest.mark.parametrize("margin", [-0.25, float("nan")])
    def test_exploit_margin_must_not_be_negative(self, margin):
        with pytest.raises(ConfigurationError, match="exploit_margin"):
            DsRemConfig(exploit_margin=margin)

    def test_threads_options_above_every_max_threads_raise(self, small_chip):
        # x264 runs at most 8 threads: 16 leaves no candidate, which
        # used to map nothing (0 instances, idle peak) without a word.
        cfg = DsRemConfig(threads_options=(16,))
        with pytest.raises(ConfigurationError, match="threads_options") as exc:
            ds_rem(small_chip, [PARSEC["x264"]], tdp=20.0, config=cfg)
        assert "x264 8" in str(exc.value)

    def test_boundary_values_are_accepted(self, small_chip):
        cfg = DsRemConfig(
            threads_options=(1,), frequencies=COARSE.frequencies,
            exploit_margin=0.0, max_steps=1,
        )
        result = ds_rem(small_chip, [PARSEC["x264"]], tdp=10.0, config=cfg)
        assert result.placed
