"""Application instances and workloads (paper Section 2.3)."""

import pytest

from repro.apps.parsec import PARSEC
from repro.apps.workload import ApplicationInstance, Workload
from repro.errors import ConfigurationError
from repro.tech.library import NODE_16NM
from repro.units import GIGA


@pytest.fixture
def x264_instance():
    return ApplicationInstance(app=PARSEC["x264"], threads=8, frequency=3.0 * GIGA)


class TestInstance:
    def test_cores_equals_threads(self, x264_instance):
        assert x264_instance.cores == 8

    def test_performance(self, x264_instance):
        app = PARSEC["x264"]
        expected = app.speedup(8) * app.ipc * 3.0 * GIGA
        assert x264_instance.performance() == pytest.approx(expected)

    def test_total_power_is_cores_times_core_power(self, x264_instance):
        assert x264_instance.total_power(NODE_16NM) == pytest.approx(
            8 * x264_instance.core_power(NODE_16NM)
        )

    def test_with_frequency(self, x264_instance):
        faster = x264_instance.with_frequency(3.6 * GIGA)
        assert faster.frequency == pytest.approx(3.6 * GIGA)
        assert x264_instance.frequency == pytest.approx(3.0 * GIGA)

    def test_thread_bounds_enforced(self):
        with pytest.raises(ConfigurationError, match="threads"):
            ApplicationInstance(app=PARSEC["x264"], threads=9, frequency=1e9)
        with pytest.raises(ConfigurationError, match="threads"):
            ApplicationInstance(app=PARSEC["x264"], threads=0, frequency=1e9)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ConfigurationError, match="frequency"):
            ApplicationInstance(app=PARSEC["x264"], threads=4, frequency=-1.0)

    def test_utilisation_matches_app(self, x264_instance):
        assert x264_instance.utilisation == pytest.approx(PARSEC["x264"].utilisation(8))


class TestWorkload:
    def test_replicate_count(self):
        w = Workload.replicate(PARSEC["ferret"], 5, 8, 3.0 * GIGA)
        assert len(w) == 5
        assert w.total_cores == 40

    def test_replicate_zero_allowed(self):
        assert len(Workload.replicate(PARSEC["ferret"], 0, 8, 3.0 * GIGA)) == 0

    def test_replicate_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="n_instances"):
            Workload.replicate(PARSEC["ferret"], -1, 8, 3.0 * GIGA)

    def test_total_performance_additive(self):
        w = Workload.replicate(PARSEC["dedup"], 3, 4, 2.0 * GIGA)
        single = w[0].performance()
        assert w.total_performance() == pytest.approx(3 * single)

    def test_total_power_additive(self):
        w = Workload.replicate(PARSEC["dedup"], 3, 4, 2.0 * GIGA)
        assert w.total_power(NODE_16NM) == pytest.approx(
            3 * w[0].total_power(NODE_16NM)
        )

    def test_add_and_iterate(self):
        w = Workload()
        w.add(ApplicationInstance(app=PARSEC["x264"], threads=2, frequency=1e9))
        w.add(ApplicationInstance(app=PARSEC["canneal"], threads=4, frequency=1e9))
        names = [inst.app.name for inst in w]
        assert names == ["x264", "canneal"]

    def test_at_frequency(self):
        w = Workload.replicate(PARSEC["x264"], 3, 8, 3.0 * GIGA)
        w2 = w.at_frequency(2.0 * GIGA)
        assert all(inst.frequency == pytest.approx(2.0 * GIGA) for inst in w2)
        assert all(inst.frequency == pytest.approx(3.0 * GIGA) for inst in w)

    def test_instances_tuple_immutable_snapshot(self):
        w = Workload.replicate(PARSEC["x264"], 2, 8, 1e9)
        snapshot = w.instances
        w.add(ApplicationInstance(app=PARSEC["x264"], threads=1, frequency=1e9))
        assert len(snapshot) == 2
        assert len(w.instances) == 3
