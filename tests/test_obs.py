"""repro.obs: registry semantics, null fast path, merge/diff, export."""

import json

import pytest

from repro import obs
from repro.obs import Registry, diff_snapshots

KINDS = ("counters", "spans", "gauges", "histograms")


@pytest.fixture()
def registry():
    return Registry(enabled=True)


class TestCounters:
    def test_incr_accumulates(self, registry):
        registry.incr("a.x")
        registry.incr("a.x", 2)
        assert registry.snapshot()["counters"] == {"a.x": 3}

    def test_disabled_registry_records_nothing(self):
        registry = Registry()
        registry.incr("a.x")
        with registry.span("a.s"):
            pass
        snap = registry.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == {}

    def test_disable_keeps_data_reset_drops_it(self, registry):
        registry.incr("a.x")
        registry.disable()
        assert registry.snapshot()["counters"] == {"a.x": 1}
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestTimersAndSpans:
    def test_spans_nest_into_dotted_paths(self, registry):
        with registry.span("experiment"):
            with registry.span("sweep"):
                pass
            with registry.span("sweep"):
                pass
        spans = registry.snapshot()["spans"]
        assert spans["experiment"]["count"] == 1
        assert spans["experiment.sweep"]["count"] == 2

    def test_sibling_spans_do_not_nest(self, registry):
        with registry.span("a"):
            pass
        with registry.span("b"):
            pass
        assert set(registry.snapshot()["spans"]) == {"a", "b"}

    def test_span_pops_on_exception(self, registry):
        with pytest.raises(ValueError):
            with registry.span("outer"):
                raise ValueError("boom")
        with registry.span("after"):
            pass
        # "after" must not appear nested under the failed span.
        assert "after" in registry.snapshot()["spans"]

    def test_null_span_is_shared_and_inert(self):
        registry = Registry()
        assert registry.span("x") is registry.span("y") is obs.NULL_SPAN

    def test_stack_unwinds_when_span_bookkeeping_raises(self, registry):
        # Regression: __exit__ must pop the stack even when recording
        # the aggregate fails, or every later span lands under a corrupt
        # path.
        original = Registry._finish_span

        def exploding(self, path, elapsed):
            raise RuntimeError("bookkeeping boom")

        Registry._finish_span = exploding
        try:
            with pytest.raises(RuntimeError, match="bookkeeping boom"):
                with registry.span("broken"):
                    pass
        finally:
            Registry._finish_span = original
        assert registry._stack == []
        with registry.span("after"):
            pass
        assert "after" in registry.snapshot()["spans"]


class TestGauges:
    def test_last_writer_wins(self, registry):
        registry.gauge("g.x", 1.0)
        registry.gauge("g.x", 7.5)
        assert registry.snapshot()["gauges"] == {"g.x": 7.5}

    def test_disabled_records_nothing(self):
        registry = Registry()
        registry.gauge("g.x", 1.0)
        assert registry.snapshot()["gauges"] == {}

    def test_diff_reports_changed_and_new_only(self, registry):
        registry.gauge("g.same", 1.0)
        registry.gauge("g.moves", 2.0)
        before = registry.snapshot()
        registry.gauge("g.same", 1.0)
        registry.gauge("g.moves", 3.0)
        registry.gauge("g.fresh", 9.0)
        delta = registry.diff(before)
        assert delta["gauges"] == {"g.moves": 3.0, "g.fresh": 9.0}

    def test_merge_overwrites(self, registry):
        registry.gauge("g.x", 1.0)
        registry.merge({"gauges": {"g.x": 5.0, "g.y": 2.0}})
        assert registry.snapshot()["gauges"] == {"g.x": 5.0, "g.y": 2.0}


class TestHistograms:
    def test_aggregates_count_sum_min_max(self, registry):
        for v in (1.0, 4.0, 0.5):
            registry.histogram("h.x", v)
        agg = registry.snapshot()["histograms"]["h.x"]
        assert agg["count"] == 3
        assert agg["sum"] == pytest.approx(5.5)
        assert agg["min"] == 0.5
        assert agg["max"] == 4.0

    def test_log2_buckets(self, registry):
        # Bucket "e" holds (2**(e-1), 2**e]: 1.0 -> "0", 1.5/2.0 -> "1",
        # 4.0 -> "2", 0 and negatives -> "le0".
        for v in (1.0, 1.5, 2.0, 4.0, 0.0, -3.0):
            registry.histogram("h.b", v)
        buckets = registry.snapshot()["histograms"]["h.b"]["buckets"]
        assert buckets == {"0": 1, "1": 2, "2": 1, "le0": 2}

    def test_diff_is_exact_on_sums_and_buckets(self, registry):
        registry.histogram("h.d", 2.0)
        before = registry.snapshot()
        registry.histogram("h.d", 8.0)
        registry.histogram("h.d", 8.0)
        delta = registry.diff(before)["histograms"]["h.d"]
        assert delta["count"] == 2
        assert delta["sum"] == pytest.approx(16.0)
        assert delta["buckets"] == {"3": 2}

    def test_diff_omits_unchanged(self, registry):
        registry.histogram("h.u", 1.0)
        before = registry.snapshot()
        assert registry.diff(before)["histograms"] == {}

    def test_merge_adds_counts_and_extremes(self, registry):
        registry.histogram("h.m", 4.0)
        other = Registry(enabled=True)
        other.histogram("h.m", 0.5)
        other.histogram("h.m", 16.0)
        registry.merge(other.snapshot())
        agg = registry.snapshot()["histograms"]["h.m"]
        assert agg["count"] == 3
        assert agg["min"] == 0.5
        assert agg["max"] == 16.0
        assert agg["buckets"] == {"2": 1, "-1": 1, "4": 1}

    def test_roundtrip_through_worker_protocol(self, registry):
        # The sweep-runner path: worker diff -> parent merge must be
        # lossless for histograms, like counters.
        worker = Registry(enabled=True)
        before = worker.snapshot()
        worker.histogram("h.w", 3.0)
        worker.histogram("h.w", 5.0)
        registry.merge(worker.diff(before))
        agg = registry.snapshot()["histograms"]["h.w"]
        assert agg["count"] == 2
        assert agg["sum"] == pytest.approx(8.0)


class TestMergeDiff:
    def test_diff_is_exact_delta(self, registry):
        registry.incr("a.x", 5)
        with registry.span("t"):
            pass
        before = registry.snapshot()
        registry.incr("a.x", 2)
        registry.incr("a.y")
        with registry.span("t"):
            pass
        delta = registry.diff(before)
        assert delta["counters"] == {"a.x": 2, "a.y": 1}
        assert delta["spans"]["t"]["count"] == 1

    def test_diff_omits_unchanged(self, registry):
        registry.incr("a.x")
        before = registry.snapshot()
        assert registry.diff(before)["counters"] == {}

    def test_merge_adds_snapshots(self, registry):
        registry.incr("a.x", 1)
        other = Registry(enabled=True)
        other.incr("a.x", 2)
        other.incr("b.y", 4)
        with other.span("s"):
            pass
        registry.merge(other.snapshot())
        snap = registry.snapshot()
        assert snap["counters"] == {"a.x": 3, "b.y": 4}
        assert snap["spans"]["s"]["count"] == 1

    def test_merge_none_is_noop(self, registry):
        registry.incr("a.x")
        registry.merge(None)
        assert registry.snapshot()["counters"] == {"a.x": 1}

    def test_merge_ignores_enabled_flag(self):
        registry = Registry()  # disabled
        registry.merge({"counters": {"w.x": 3}, "spans": {}})
        assert registry.snapshot()["counters"] == {"w.x": 3}

    def test_version_2_timers_are_ignored(self, registry):
        # Snapshots before version 3 carry a flat "timers" kind; merge,
        # diff and both exports read past it.
        old = {
            "version": 2,
            "counters": {"a.x": 1},
            "timers": {"t": {"count": 1, "total_s": 0.5}},
            "spans": {"s": {"count": 1, "total_s": 0.25}},
            "gauges": {},
            "histograms": {},
        }
        registry.merge(old)
        snap = registry.snapshot()
        assert snap["version"] == obs.SNAPSHOT_VERSION == 3
        assert "timers" not in snap
        assert snap["spans"] == old["spans"]
        delta = diff_snapshots(old, {"version": 2, "timers": {}})
        assert "timers" not in delta and delta["spans"] == old["spans"]
        assert ",t," not in obs.to_csv(old)


class TestDiffSnapshots:
    """Consecutive deltas telescope: baseline plus deltas is the final state."""

    def test_baseline_plus_deltas_reproduce_final_state(self, registry):
        registry.incr("pre.counter", 7)
        registry.histogram("pre.hist", 3.0)
        snaps = [registry.snapshot()]

        registry.incr("tick.counter", 2)
        registry.gauge("tick.gauge", 1.5)
        with registry.span("tick"):
            pass
        snaps.append(registry.snapshot())

        registry.incr("tick.counter", 5)
        registry.histogram("pre.hist", -1.0)
        registry.gauge("tick.gauge", 2.5)
        with registry.span("tick.stage"):
            pass
        snaps.append(registry.snapshot())

        merged = Registry(enabled=True)
        merged.merge(snaps[0])
        for before, now in zip(snaps, snaps[1:]):
            merged.merge(diff_snapshots(now, before))
        final = registry.snapshot()
        for kind in KINDS:
            assert merged.snapshot()[kind] == final[kind], kind

    def test_torn_histogram_delta_is_kept(self):
        # The earlier snapshot caught a record after its count update
        # but before its sum and bucket updates.
        hist = {"count": 5, "sum": 4.0, "min": 0.5, "max": 1.0}
        before = {"histograms": {"h": {**hist, "buckets": {"0": 4}}}}
        now = {
            "counters": {},
            "spans": {},
            "gauges": {},
            "histograms": {"h": {**hist, "sum": 5.0, "buckets": {"0": 5}}},
        }
        delta = diff_snapshots(now, before)["histograms"]
        assert delta == {
            "h": {"count": 0, "sum": 1.0, "min": 0.5, "max": 1.0, "buckets": {"0": 1}}
        }

    def test_torn_span_deltas_telescope(self):
        # snaps[1] and snaps[2] each caught a span record between its
        # count update and its total_s update.  The totals are dyadic, so
        # every float below is exact.
        def snap(count, total_s):
            return {
                "counters": {},
                "spans": {"s": {"count": count, "total_s": total_s}},
                "gauges": {},
                "histograms": {},
            }

        snaps = [snap(2, 0.5), snap(3, 0.5), snap(3, 0.75), snap(5, 1.125)]
        deltas = [diff_snapshots(now, before) for before, now in zip(snaps, snaps[1:])]
        assert all("s" in d["spans"] for d in deltas)
        count = sum(d["spans"]["s"]["count"] for d in deltas)
        total = sum(d["spans"]["s"]["total_s"] for d in deltas)
        assert count == snaps[-1]["spans"]["s"]["count"] - snaps[0]["spans"]["s"]["count"]
        assert total == snaps[-1]["spans"]["s"]["total_s"] - snaps[0]["spans"]["s"]["total_s"]

    def test_diff_snapshots_matches_registry_diff(self, registry):
        before = registry.snapshot()
        registry.incr("x.y", 3)
        assert registry.diff(before) == diff_snapshots(
            registry.snapshot(), before
        )


class TestGlobalHelpers:
    def test_module_level_incr_respects_enable(self, global_obs):
        obs.incr("a.x")
        assert obs.snapshot()["counters"] == {"a.x": 1}
        obs.disable()
        obs.incr("a.x")
        obs.enable()
        assert obs.snapshot()["counters"] == {"a.x": 1}

    def test_global_span_and_diff(self, global_obs):
        before = obs.snapshot()
        with obs.span("demo"):
            obs.incr("demo.events")
        delta = obs.diff(before)
        assert delta["counters"] == {"demo.events": 1}
        assert "demo" in delta["spans"]


class TestExport:
    def test_json_round_trips(self, registry, tmp_path):
        registry.incr("a.x", 2)
        target = tmp_path / "snap.json"
        text = obs.to_json(registry.snapshot(), target)
        assert json.loads(text)["counters"]["a.x"] == 2
        assert json.loads(target.read_text())["counters"]["a.x"] == 2

    def test_csv_flattens_all_kinds(self, registry, tmp_path):
        registry.incr("a.x", 2)
        with registry.span("s"):
            pass
        registry.gauge("g", 0.5)
        registry.histogram("h", 3.0)
        target = tmp_path / "snap.csv"
        text = obs.to_csv(registry.snapshot(), target)
        lines = text.strip().splitlines()
        assert lines[0] == "kind,name,count,total_s,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"counter", "span", "gauge", "histogram"}
        assert target.read_text() == text
