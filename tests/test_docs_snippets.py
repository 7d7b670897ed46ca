"""The code snippets in docs/extending.md must actually work."""

import numpy as np
import pytest

from repro import AppProfile
from repro.apps.operating_points import operating_points
from repro.chip import Chip
from repro.mapping.base import Placer
from repro.runtime import AdmissionDecision
from repro.runtime.policies import AdmissionPolicy
from repro.tech import TechNode
from repro.tech.itrs import ScalingFactors
from repro.units import GIGA, mm2


class TestCharacteriseApplication:
    """Section 1 of docs/extending.md."""

    def test_snippet(self):
        my_app = AppProfile.from_measurements(
            name="mykernel",
            ipc=1.3,
            scaling_points=[(8, 4.8), (64, 2.6)],
            power_samples=[
                (1.0e9, 2.1),
                (2.0e9, 5.2),
                (3.0e9, 10.4),
                (3.8e9, 16.0),
            ],
        )
        assert my_app.speedup(8) == pytest.approx(4.8, rel=1e-6)
        assert my_app.speedup(64) == pytest.approx(2.6, rel=1e-6)
        assert my_app.ceff_22nm > 0


class TestCustomNode:
    """Section 2 of docs/extending.md."""

    @pytest.fixture(scope="class")
    def node_5nm(self):
        return TechNode(
            name="5nm",
            feature_nm=5.0,
            factors=ScalingFactors(
                vdd=0.68, frequency=2.9, capacitance=0.16, area=0.08
            ),
            core_area=mm2(0.75),
            f_max=4.8 * GIGA,
        )

    def test_chip_builds(self, node_5nm):
        chip = Chip.grid_chip(node_5nm, 4, 4)
        assert chip.n_cores == 16
        assert chip.node.name == "5nm"

    def test_models_scale_through(self, node_5nm):
        from repro.apps.parsec import PARSEC
        from repro.tech.library import NODE_8NM

        app = PARSEC["x264"]
        p5 = app.core_power(node_5nm, 8, 3.0 * GIGA)
        p8 = app.core_power(NODE_8NM, 8, 3.0 * GIGA)
        assert 0 < p5 < p8  # newer node, cheaper at iso-frequency

    def test_estimation_works(self, node_5nm):
        from repro.apps.parsec import PARSEC
        from repro.core.constraints import TemperatureConstraint
        from repro.core.dark_silicon import estimate_dark_silicon

        chip = Chip.grid_chip(node_5nm, 4, 4)
        result = estimate_dark_silicon(
            chip, PARSEC["x264"], 4.0 * GIGA, TemperatureConstraint(), threads=4
        )
        assert result.peak_temperature <= chip.t_dtm + 1e-6


class RowZeroFirst(Placer):
    """Section 3 of docs/extending.md, verbatim."""

    def place(self, chip, n_cores, occupied):
        free = self.free_cores(chip, occupied)
        if len(free) < n_cores:
            return None
        rows, cols = chip.grid
        return sorted(free, key=lambda c: divmod(c, cols))[:n_cores]


class TestCustomPlacer:
    def test_contract(self, small_chip):
        placer = RowZeroFirst()
        cores = placer.place(small_chip, 4, {1})
        assert cores == [0, 2, 3, 4]

    def test_in_estimation(self, small_chip):
        from repro.apps.parsec import PARSEC
        from repro.core.constraints import PowerBudgetConstraint
        from repro.core.dark_silicon import estimate_dark_silicon

        result = estimate_dark_silicon(
            small_chip, PARSEC["dedup"], 2.0 * GIGA,
            PowerBudgetConstraint(100.0), threads=4, placer=RowZeroFirst(),
        )
        assert result.active_cores > 0


class PenalisedSpread(Placer):
    """Section 3 of docs/extending.md (second snippet), verbatim."""

    def __init__(self, penalty):
        self.penalty = np.asarray(penalty, dtype=float)

    def place(self, chip, n_cores, occupied):
        self.check_request(chip, n_cores, occupied)
        if chip.n_cores - len(occupied) < n_cores:
            return None
        B = chip.thermal.influence_matrix()
        received = np.zeros(chip.n_cores)  # sum of B[:, k] over taken k
        for k in sorted(occupied):
            received += B[:, k]
        mask = np.zeros(chip.n_cores)  # +inf on unavailable cores
        mask[list(occupied)] = np.inf
        chosen = []
        for _ in range(n_cores):
            scores = received + B.diagonal() + self.penalty + mask
            best = int(scores.argmin())  # lowest index wins ties
            chosen.append(best)
            mask[best] = np.inf
            received += B[:, best]
        return chosen


class TestPenalisedSpread:
    def test_zero_penalty_places_like_thermal_spread(self, small_chip):
        from repro.mapping.patterns import ThermalSpreadPlacer

        placer = PenalisedSpread(np.zeros(small_chip.n_cores))
        for occupied in (set(), {0, 5, 6}, {3, 12, 15}):
            assert placer.place(small_chip, 6, occupied) == ThermalSpreadPlacer().place(
                small_chip, 6, occupied
            )

    def test_penalty_steers_away(self, small_chip):
        penalty = np.zeros(small_chip.n_cores)
        penalty[0] = 1e3
        assert 0 not in PenalisedSpread(penalty).place(small_chip, 4, set())

    def test_bad_request_rejected(self, small_chip):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PenalisedSpread(np.zeros(small_chip.n_cores)).place(small_chip, -1, set())


class FixedFrequency(AdmissionPolicy):
    """Section 4 of docs/extending.md, verbatim."""

    def __init__(self, frequency, threads=8):
        super().__init__(threads)
        self._f = frequency

    def admit(self, chip, job, core_powers, cores):
        table = operating_points(job.app, chip.node, chip.t_dtm)
        p = table.core_power(len(cores), self._f)
        tentative = core_powers.copy()
        tentative[list(cores)] += p
        if chip.solver.peak_temperature(tentative) > chip.t_dtm:
            return None
        return AdmissionDecision(threads=len(cores), frequency=self._f)


class TestCustomAdmissionPolicy:
    def test_in_simulator(self, small_chip):
        from repro.apps.parsec import PARSEC
        from repro.runtime import Job, OnlineSimulator

        jobs = [
            Job(job_id=i, app=PARSEC["x264"], arrival=0.2 * i, work=20e9)
            for i in range(4)
        ]
        policy = FixedFrequency(2.0 * GIGA, threads=4)
        result = OnlineSimulator(small_chip, policy).run(jobs)
        assert len(result.records) == 4
        assert all(
            r.frequency == pytest.approx(2.0 * GIGA) for r in result.records
        )
        assert result.max_peak_temperature <= small_chip.t_dtm + 1e-6
