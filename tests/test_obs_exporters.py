"""Live exporters: Prometheus round-trip, JSONL streams, HTTP, percentiles.

The Prometheus mapping must be value-exact (counters/gauges), sum- and
count-consistent (summaries, histograms) and monotone in the cumulative
``le`` buckets — the registry's log2 buckets have exact power-of-two
upper bounds, so nothing is approximated on the way out.  The percentile
estimator's contract is exactness on single-value distributions (every
sample in one bucket with ``min == max``).
"""

import json
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.obs import Registry, read_jsonl, start_metrics_server, to_prometheus
from repro.obs.export import annotate_percentiles, hist_percentile
from repro.obs.exporters import (
    JsonlSink,
    bucket_upper_bound,
    parse_prometheus,
    sanitize_metric_name,
)


@pytest.fixture()
def registry():
    r = Registry(enabled=True)
    r.incr("perf.batched.single_solves", 12)
    r.gauge("perf.batched.influence_bytes", 0.75)
    with r.timer("stage"):
        pass
    with r.span("experiment"):
        pass
    for value in (3.0, 3.0, 9.0, -2.0):
        r.histogram("tsp.budget_w", value)
    return r


class TestNameMapping:
    def test_dotted_names_flatten_under_namespace(self):
        assert (
            sanitize_metric_name("perf.batched.single_solves")
            == "repro_perf_batched_single_solves"
        )

    def test_empty_namespace_keeps_flat_name(self):
        assert sanitize_metric_name("a.b-c", namespace="") == "a_b_c"

    def test_bucket_upper_bounds_are_exact_powers_of_two(self):
        assert bucket_upper_bound("le0") == 0.0
        assert bucket_upper_bound("3") == 8.0
        assert bucket_upper_bound("-2") == 0.25


class TestPrometheusRoundTrip:
    def test_counter_and_gauge_values_exact(self, registry):
        series = parse_prometheus(to_prometheus(registry.snapshot()))
        assert series["repro_perf_batched_single_solves_total"][""] == 12
        assert series["repro_perf_batched_influence_bytes"][""] == 0.75

    def test_summaries_carry_count_and_sum(self, registry):
        snap = registry.snapshot()
        series = parse_prometheus(to_prometheus(snap))
        assert series["repro_stage_seconds_count"][""] == 1
        assert (
            series["repro_stage_seconds_sum"][""]
            == snap["timers"]["stage"]["total_s"]
        )
        assert series["repro_experiment_span_seconds_count"][""] == 1

    def test_histogram_buckets_cumulative_and_consistent(self, registry):
        snap = registry.snapshot()
        series = parse_prometheus(to_prometheus(snap))
        buckets = series["repro_tsp_budget_w_bucket"]
        # Samples 3.0, 3.0 -> (2,4]; 9.0 -> (8,16]; -2.0 -> le0.
        assert buckets['{le="0"}'] == 1
        assert buckets['{le="4"}'] == 3
        assert buckets['{le="16"}'] == 4
        assert buckets['{le="+Inf"}'] == 4
        # Monotone in increasing le order, +Inf equals the count.
        finite = sorted(
            (float(label[5:-2]), count)
            for label, count in buckets.items()
            if "Inf" not in label
        )
        counts = [count for _, count in finite]
        assert counts == sorted(counts)
        assert counts[-1] <= buckets['{le="+Inf"}']
        assert (
            series["repro_tsp_budget_w_count"][""]
            == snap["histograms"]["tsp.budget_w"]["count"]
        )
        assert (
            series["repro_tsp_budget_w_sum"][""]
            == snap["histograms"]["tsp.budget_w"]["sum"]
        )

    def test_output_is_deterministic_and_typed(self, registry):
        snap = registry.snapshot()
        text = to_prometheus(snap)
        assert text == to_prometheus(snap)
        assert "# TYPE repro_perf_batched_single_solves_total counter" in text
        assert "# TYPE repro_perf_batched_influence_bytes gauge" in text
        assert "# TYPE repro_stage_seconds summary" in text
        assert "# TYPE repro_tsp_budget_w histogram" in text

    def test_empty_snapshot_renders_empty(self):
        assert to_prometheus(Registry(enabled=True).snapshot()) == ""


class TestJsonl:
    def test_sink_round_trips_records(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"seq": 0, "value": 1.5})
            sink.write({"seq": 1, "nested": {"a": [1, 2]}})
            assert sink.written == 2
            assert sink.path == path
        assert list(read_jsonl(path)) == [
            {"seq": 0, "value": 1.5},
            {"seq": 1, "nested": {"a": [1, 2]}},
        ]

    def test_sink_appends_and_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "records.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"seq": 0})
        with JsonlSink(path) as sink:
            sink.write({"seq": 1})
        assert [r["seq"] for r in read_jsonl(path)] == [0, 1]

    def test_reader_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"seq": 0}\n'
            '{"seq": 1, "half\n'  # a crash mid-write
            "\n"
            "[1, 2, 3]\n"  # parseable but not a record
            '{"seq": 2}\n'
        )
        assert [r["seq"] for r in read_jsonl(path)] == [0, 2]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_jsonl(tmp_path / "absent.jsonl")) == []


class TestHttpServer:
    def test_serves_metrics_and_snapshot(self, registry):
        server = start_metrics_server(registry.snapshot)
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics"
            ) as resp:
                assert resp.status == 200
                assert "version=0.0.4" in resp.headers["Content-Type"]
                body = resp.read().decode()
            assert "repro_perf_batched_single_solves_total 12" in body
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/snapshot.json"
            ) as resp:
                served = json.loads(resp.read().decode())
            assert served == registry.snapshot()
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_path_is_404(self, registry):
        server = start_metrics_server(registry.snapshot)
        try:
            port = server.server_address[1]
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://127.0.0.1:{port}/nope")
            assert err.value.code == 404
        finally:
            server.shutdown()
            server.server_close()

    def test_scrapes_see_live_state(self, registry):
        server = start_metrics_server(registry.snapshot)
        try:
            port = server.server_address[1]
            registry.incr("perf.batched.single_solves", 88)
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics"
            ) as resp:
                body = resp.read().decode()
            assert "repro_perf_batched_single_solves_total 100" in body
        finally:
            server.shutdown()
            server.server_close()


class TestPercentiles:
    def test_single_value_distribution_is_exact_at_every_quantile(self):
        r = Registry(enabled=True)
        for _ in range(10):
            r.histogram("h", 3.0)
        agg = r.snapshot()["histograms"]["h"]
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert hist_percentile(agg, q) == 3.0

    def test_single_bucket_distribution_clamps_to_extremes(self):
        r = Registry(enabled=True)
        r.histogram("h", 2.5)
        r.histogram("h", 3.5)  # both in (2, 4]
        agg = r.snapshot()["histograms"]["h"]
        assert hist_percentile(agg, 0.0) == 2.5
        assert hist_percentile(agg, 1.0) == 3.5
        assert 2.5 <= hist_percentile(agg, 0.5) <= 3.5

    def test_quantile_is_monotone_across_buckets(self):
        r = Registry(enabled=True)
        for value in (1.0, 2.0, 4.0, 8.0, 16.0, 100.0):
            r.histogram("h", value)
        agg = r.snapshot()["histograms"]["h"]
        estimates = [hist_percentile(agg, q / 20) for q in range(21)]
        assert estimates == sorted(estimates)
        assert estimates[0] == 1.0
        assert estimates[-1] == 100.0

    def test_empty_histogram_has_no_percentile(self):
        assert (
            hist_percentile(
                {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "buckets": {}},
                0.5,
            )
            is None
        )

    def test_out_of_range_quantile_rejected(self):
        agg = {"count": 1, "sum": 1.0, "min": 1.0, "max": 1.0, "buckets": {"0": 1}}
        with pytest.raises(ConfigurationError):
            hist_percentile(agg, 1.5)
        with pytest.raises(ConfigurationError):
            hist_percentile(agg, -0.1)

    def test_annotate_percentiles_stamps_without_mutating(self):
        r = Registry(enabled=True)
        for _ in range(4):
            r.histogram("h", 5.0)
        snap = r.snapshot()
        annotated = annotate_percentiles(snap)
        assert annotated["histograms"]["h"]["p50"] == 5.0
        assert annotated["histograms"]["h"]["p90"] == 5.0
        assert annotated["histograms"]["h"]["p99"] == 5.0
        assert "p50" not in snap["histograms"]["h"]
