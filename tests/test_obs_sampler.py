"""SnapshotSampler: interval-delta exactness, thread safety, the ring.

The sampler's contract is *telescoping exactness*: consecutive ticks
share their boundary snapshot, so merging the construction baseline
with every interval delta reproduces the final registry state to the
bit — counters, timer/span aggregates, histogram counts/sums/buckets
and gauge values alike.  The hammer test additionally pins the
no-locks thread-safety story: a recorder thread inserting new names
mid-snapshot costs retries (counted), never torn data.
"""

import threading

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import Registry, SnapshotSampler, read_jsonl, safe_snapshot
from repro.obs.registry import diff_snapshots

KINDS = ("counters", "timers", "spans", "gauges", "histograms")


@pytest.fixture()
def registry():
    return Registry(enabled=True)


def _merge_samples(baseline: dict, samples: list[dict]) -> dict:
    """Fold a baseline and every interval delta into a fresh registry."""
    acc = Registry(enabled=True)
    acc.merge(baseline)
    for record in samples:
        acc.merge(record["delta"])
    return acc.snapshot()


class TestTelescoping:
    def test_baseline_plus_deltas_reproduce_final_state(self, registry):
        registry.incr("pre.counter", 7)
        registry.histogram("pre.hist", 3.0)
        sampler = SnapshotSampler(registry, interval_s=60.0)

        registry.incr("tick.counter", 2)
        registry.gauge("tick.gauge", 1.5)
        with registry.span("tick"):
            pass
        sampler.sample_now()

        registry.incr("tick.counter", 5)
        registry.histogram("pre.hist", -1.0)
        registry.gauge("tick.gauge", 2.5)
        with registry.timer("tick.stage"):
            pass
        sampler.sample_now()

        final = registry.snapshot()
        merged = _merge_samples(sampler.baseline, sampler.samples())
        for kind in KINDS:
            assert merged[kind] == final[kind], kind

    def test_baseline_is_construction_time_state(self, registry):
        registry.incr("before.sampler", 3)
        sampler = SnapshotSampler(registry, interval_s=60.0)
        assert sampler.baseline["counters"] == {"before.sampler": 3}
        registry.incr("after.sampler")
        record = sampler.sample_now()
        # Pre-construction activity stays in the baseline, not the delta.
        assert "before.sampler" not in record["delta"]["counters"]
        assert record["delta"]["counters"]["after.sampler"] == 1

    def test_torn_histogram_delta_is_kept(self):
        # The earlier snapshot caught a record after its count update
        # but before its sum and bucket updates.
        hist = {"count": 5, "sum": 4.0, "min": 0.5, "max": 1.0}
        before = {"histograms": {"h": {**hist, "buckets": {"0": 4}}}}
        now = {
            "counters": {},
            "timers": {},
            "spans": {},
            "gauges": {},
            "histograms": {"h": {**hist, "sum": 5.0, "buckets": {"0": 5}}},
        }
        delta = diff_snapshots(now, before)["histograms"]
        assert delta == {
            "h": {"count": 0, "sum": 1.0, "min": 0.5, "max": 1.0, "buckets": {"0": 1}}
        }

    def test_torn_timer_and_span_deltas_telescope(self):
        # snaps[1] caught a timer record and a span record after their
        # count updates but before their total_s updates.  The totals are
        # dyadic, so every float below is exact.
        def snap(timer, span):
            return {
                "counters": {},
                "timers": {"t": {"count": timer[0], "total_s": timer[1]}},
                "spans": {"s": {"count": span[0], "total_s": span[1]}},
                "gauges": {},
                "histograms": {},
            }

        snaps = [
            snap((2, 0.5), (1, 0.25)),
            snap((3, 0.5), (2, 0.25)),
            snap((3, 0.75), (2, 1.5)),
            snap((5, 1.125), (4, 2.0)),
        ]
        deltas = [diff_snapshots(now, before) for before, now in zip(snaps, snaps[1:])]
        for kind, name in (("timers", "t"), ("spans", "s")):
            count = sum(d[kind][name]["count"] for d in deltas if name in d[kind])
            total = sum(d[kind][name]["total_s"] for d in deltas if name in d[kind])
            first, last = snaps[0][kind][name], snaps[-1][kind][name]
            assert count == last["count"] - first["count"], kind
            assert total == last["total_s"] - first["total_s"], kind

    def test_consecutive_deltas_do_not_double_count(self, registry):
        sampler = SnapshotSampler(registry, interval_s=60.0)
        registry.incr("once", 4)
        first = sampler.sample_now()
        second = sampler.sample_now()
        assert first["delta"]["counters"]["once"] == 4
        assert "once" not in second["delta"]["counters"]

    def test_sample_records_have_the_documented_shape(self, registry):
        sampler = SnapshotSampler(registry, interval_s=0.25)
        record = sampler.sample_now()
        assert record["seq"] == 0
        assert record["interval_s"] == 0.25
        assert record["uptime_s"] >= 0.0
        assert record["process"]["rss_bytes"] > 0
        assert set(record["delta"]) >= set(KINDS)
        assert sampler.sample_now()["seq"] == 1

    def test_each_tick_publishes_process_gauges_and_self_counter(
        self, registry
    ):
        sampler = SnapshotSampler(registry, interval_s=60.0)
        sampler.sample_now()
        sampler.sample_now()
        snap = registry.snapshot()
        assert snap["counters"]["obs.sampler.samples"] == 2
        assert snap["gauges"]["process.rss_bytes"] > 0
        assert snap["gauges"]["process.cpu_user_s"] >= 0.0


class TestRing:
    def test_capacity_bounds_the_ring_and_counts_overflows(self, registry):
        sampler = SnapshotSampler(registry, interval_s=60.0, capacity=3)
        for _ in range(5):
            sampler.sample_now()
        samples = sampler.samples()
        assert [s["seq"] for s in samples] == [2, 3, 4]
        assert registry.snapshot()["counters"]["obs.sampler.overflows"] == 2

    def test_flush_writes_ring_to_jsonl(self, registry, tmp_path):
        sampler = SnapshotSampler(registry, interval_s=60.0)
        registry.incr("flush.me")
        sampler.sample_now()
        sampler.sample_now()
        out = tmp_path / "ring.jsonl"
        assert sampler.flush(out) == 2
        records = list(read_jsonl(out))
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["delta"]["counters"]["flush.me"] == 1
        assert registry.snapshot()["counters"]["obs.sampler.flushes"] == 1

    def test_streaming_sink_receives_every_sample(self, registry, tmp_path):
        path = tmp_path / "stream.jsonl"
        sampler = SnapshotSampler(registry, interval_s=60.0, sink=path)
        sampler.sample_now()
        sampler.sample_now()
        sampler.stop()  # closing sample + owned-sink close
        records = list(read_jsonl(path))
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert sampler.sink is None


class TestLifecycle:
    def test_invalid_interval_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="interval"):
            SnapshotSampler(registry, interval_s=0.0)

    def test_invalid_capacity_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="capacity"):
            SnapshotSampler(registry, capacity=0)

    def test_background_thread_samples_and_stops(self, registry):
        sampler = SnapshotSampler(registry, interval_s=0.01)
        with sampler:
            assert sampler.running
            deadline = threading.Event()
            for _ in range(500):
                if sampler.samples():
                    break
                deadline.wait(0.01)
        assert not sampler.running
        # stop() takes a closing sample, so the ring is never empty.
        samples = sampler.samples()
        assert samples
        assert [s["seq"] for s in samples] == list(range(len(samples)))

    def test_start_is_idempotent(self, registry):
        sampler = SnapshotSampler(registry, interval_s=0.05)
        sampler.start()
        thread = sampler._thread
        assert sampler.start() is sampler
        assert sampler._thread is thread
        sampler.stop(final_sample=False)


class TestThreadSafety:
    def test_hammered_registry_never_tears(self, registry):
        """Concurrent recorders inserting new names: retries, not tears."""
        stop = threading.Event()
        wrote = {"n": 0}

        def recorder():
            i = 0
            while not stop.is_set():
                registry.incr("hammer.hits")
                registry.incr(f"hammer.new_{i}")  # forces snapshot retries
                registry.histogram("hammer.values", float(i % 7))
                with registry.span(f"hammer_span_{i % 3}"):
                    pass
                wrote["n"] += 1
                i += 1

        sampler = SnapshotSampler(registry, interval_s=0.001)
        thread = threading.Thread(target=recorder, daemon=True)
        sampler.start()
        thread.start()
        stop.wait(0.3)
        stop.set()
        thread.join(timeout=5.0)
        sampler.stop()  # closing sample runs after the recorder quiesced
        assert wrote["n"] > 0

        samples = sampler.samples()
        assert len(samples) >= 2
        # No torn aggregates: every delta is internally consistent.  A
        # boundary snapshot may catch one record in flight between an
        # aggregate's count and bucket updates — bounded skew, never a
        # half-written value.
        for record in samples:
            delta = record["delta"]
            for value in delta["counters"].values():
                assert value > 0
            for agg in delta["histograms"].values():
                assert abs(agg["count"] - sum(agg["buckets"].values())) <= 2
            for agg in delta["spans"].values():
                assert agg["count"] > 0
                assert agg["total_s"] >= 0.0
        # Telescoping survives concurrency: the deltas add up exactly to
        # the state at the last tick boundary (nothing recorded since —
        # the recorder stopped before the closing sample).
        merged = _merge_samples(sampler.baseline, samples)
        final = registry.snapshot()
        assert merged["counters"] == final["counters"]
        assert merged["histograms"] == final["histograms"]

    def test_safe_snapshot_retries_concurrent_inserts(self):
        class Flaky(Registry):
            def __init__(self, failures):
                super().__init__(enabled=True)
                self._failures = failures

            def snapshot(self):
                if self._failures:
                    self._failures -= 1
                    raise RuntimeError("dictionary changed size")
                return super().snapshot()

        flaky = Flaky(failures=3)
        snap = safe_snapshot(flaky)
        assert snap["counters"]["obs.sampler.snapshot_retries"] == 3

    def test_safe_snapshot_exhaustion_raises(self):
        class AlwaysFlaky(Registry):
            def snapshot(self):
                raise RuntimeError("dictionary changed size")

        with pytest.raises(RuntimeError):
            safe_snapshot(AlwaysFlaky(enabled=True), attempts=2)


class TestModuleLevel:
    def test_default_registry_is_the_process_global(self):
        was_enabled = obs.enabled()
        obs.enable()
        obs.reset()
        try:
            sampler = SnapshotSampler(interval_s=60.0)
            assert sampler.registry is obs.REGISTRY
            obs.incr("global.sample")
            record = sampler.sample_now()
            assert record["delta"]["counters"]["global.sample"] == 1
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()

    def test_diff_snapshots_matches_registry_diff(self, registry):
        before = registry.snapshot()
        registry.incr("x.y", 3)
        assert registry.diff(before) == diff_snapshots(
            registry.snapshot(), before
        )
