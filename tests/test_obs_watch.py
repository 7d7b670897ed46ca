"""Budget watchdog: schema validation, predicates, the shipped budgets.

Every predicate (``max``/``min``/``p95_le``/``ratio_ge``) is exercised
against hand-built snapshots, wildcards fan out, a verdict without a
value renders as ``not measured`` unless ``required`` makes it a
violation, and the integration half pins that the *shipped*
``benchmarks/budgets.json`` passes on, and measures every budget of, a
real snapshot of the current tree.  The percentile estimator behind ``p95_le`` and the report's
percentile table must be exact on single-value distributions (every
sample in one bucket with ``min == max``).
"""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.obs import Registry
from repro.obs.export import annotate_percentiles, hist_percentile
from repro.obs.watch import (
    Budget,
    check_snapshot,
    evaluate,
    load_budgets,
    render_verdicts,
    violations,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write_budgets(tmp_path, budgets: list[dict]) -> Path:
    path = tmp_path / "budgets.json"
    path.write_text(json.dumps({"budgets": budgets}))
    return path


def _snapshot(**kinds) -> dict:
    base = {
        "version": 2,
        "counters": {},
        "timers": {},
        "spans": {},
        "gauges": {},
        "histograms": {},
    }
    base.update(kinds)
    return base


class TestLoading:
    def test_valid_file_loads_all_fields(self, tmp_path):
        path = _write_budgets(
            tmp_path,
            [
                {
                    "metric": "a.b",
                    "max": 5,
                    "severity": "soft",
                    "required": True,
                    "note": "why",
                }
            ],
        )
        (budget,) = load_budgets(path)
        assert budget == Budget(
            metric="a.b",
            predicate="max",
            threshold=5.0,
            severity="soft",
            required=True,
            note="why",
        )

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_budgets(tmp_path / "absent.json")

    def test_unparseable_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not JSON"):
            load_budgets(path)

    def test_top_level_shape_rejected(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"budget": []}))
        with pytest.raises(ConfigurationError, match="'budgets' list"):
            load_budgets(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_budgets(tmp_path, [{"metric": "a", "max": 1, "mx": 2}])
        with pytest.raises(ConfigurationError, match="unknown keys"):
            load_budgets(path)

    def test_no_predicate_rejected(self, tmp_path):
        path = _write_budgets(tmp_path, [{"metric": "a"}])
        with pytest.raises(ConfigurationError, match="exactly one"):
            load_budgets(path)

    def test_two_predicates_rejected(self, tmp_path):
        path = _write_budgets(tmp_path, [{"metric": "a", "max": 1, "min": 0}])
        with pytest.raises(ConfigurationError, match="exactly one"):
            load_budgets(path)

    def test_non_numeric_threshold_rejected(self, tmp_path):
        for bad in ("5", True):
            path = _write_budgets(tmp_path, [{"metric": "a", "max": bad}])
            with pytest.raises(ConfigurationError, match="number"):
                load_budgets(path)

    def test_ratio_needs_over(self, tmp_path):
        path = _write_budgets(tmp_path, [{"metric": "a", "ratio_ge": 0.5}])
        with pytest.raises(ConfigurationError, match="'over'"):
            load_budgets(path)

    def test_over_only_for_ratio(self, tmp_path):
        path = _write_budgets(
            tmp_path, [{"metric": "a", "max": 1, "over": ["b"]}]
        )
        with pytest.raises(ConfigurationError, match="only applies"):
            load_budgets(path)

    def test_bad_severity_rejected(self, tmp_path):
        path = _write_budgets(
            tmp_path, [{"metric": "a", "max": 1, "severity": "fatal"}]
        )
        with pytest.raises(ConfigurationError, match="severity"):
            load_budgets(path)

    def test_non_bool_required_rejected(self, tmp_path):
        path = _write_budgets(
            tmp_path, [{"metric": "a", "max": 1, "required": "yes"}]
        )
        with pytest.raises(ConfigurationError, match="required"):
            load_budgets(path)


class TestPredicates:
    def test_max_on_counters(self):
        budgets = [Budget(metric="c", predicate="max", threshold=10)]
        ok = evaluate(budgets, _snapshot(counters={"c": 10}))
        bad = evaluate(budgets, _snapshot(counters={"c": 11}))
        assert ok[0].ok and ok[0].value == 10
        assert not bad[0].ok and bad[0].gating

    def test_min_on_gauges(self):
        budgets = [Budget(metric="g", predicate="min", threshold=0.5)]
        assert evaluate(budgets, _snapshot(gauges={"g": 0.5}))[0].ok
        assert not evaluate(budgets, _snapshot(gauges={"g": 0.49}))[0].ok

    def test_timers_and_spans_resolve_total_seconds(self):
        budgets = [Budget(metric="t", predicate="max", threshold=1.0)]
        snap = _snapshot(timers={"t": {"count": 3, "total_s": 2.0}})
        verdict = evaluate(budgets, snap)[0]
        assert not verdict.ok and verdict.value == 2.0
        snap = _snapshot(spans={"t": {"count": 1, "total_s": 0.5}})
        assert evaluate(budgets, snap)[0].ok

    def test_histogram_max_and_min_read_recorded_extremes(self):
        hist = {"count": 3, "sum": 9.0, "min": 1.0, "max": 7.0, "buckets": {"3": 3}}
        snap = _snapshot(histograms={"h": hist})
        assert not evaluate(
            [Budget(metric="h", predicate="max", threshold=6.0)], snap
        )[0].ok
        assert evaluate(
            [Budget(metric="h", predicate="min", threshold=1.0)], snap
        )[0].ok

    def test_p95_le_on_constant_histogram_is_exact(self):
        hist = {"count": 8, "sum": 24.0, "min": 3.0, "max": 3.0, "buckets": {"2": 8}}
        snap = _snapshot(histograms={"h": hist})
        passing = evaluate(
            [Budget(metric="h", predicate="p95_le", threshold=3.0)], snap
        )[0]
        assert passing.ok and passing.value == 3.0
        assert not evaluate(
            [Budget(metric="h", predicate="p95_le", threshold=2.9)], snap
        )[0].ok

    def test_ratio_ge(self):
        budget = Budget(
            metric="hits",
            predicate="ratio_ge",
            threshold=0.5,
            over=("hits", "misses"),
        )
        snap = _snapshot(counters={"hits": 6, "misses": 4})
        verdict = evaluate([budget], snap)[0]
        assert verdict.ok and verdict.value == pytest.approx(0.6)
        snap = _snapshot(counters={"hits": 4, "misses": 6})
        assert not evaluate([budget], snap)[0].ok

    def test_ratio_zero_denominator_is_vacuous_unless_required(self):
        snap = _snapshot(counters={"hits": 0, "misses": 0})
        relaxed = Budget(
            metric="hits", predicate="ratio_ge", threshold=0.5, over=("misses",)
        )
        verdict = evaluate([relaxed], snap)[0]
        assert verdict.ok and "denominator" in verdict.detail
        assert verdict.describe().startswith("not measured: ")
        strict = Budget(
            metric="hits",
            predicate="ratio_ge",
            threshold=0.5,
            over=("misses",),
            required=True,
        )
        assert not evaluate([strict], snap)[0].ok


class TestMatching:
    def test_wildcard_fans_out_to_every_match(self):
        budgets = [Budget(metric="solver.cost.*", predicate="max", threshold=5)]
        snap = _snapshot(
            counters={"solver.cost.a": 1, "solver.cost.b": 9, "other": 99}
        )
        verdicts = evaluate(budgets, snap)
        assert [v.metric for v in verdicts] == ["solver.cost.a", "solver.cost.b"]
        assert [v.ok for v in verdicts] == [True, False]

    def test_absent_metric_passes_vacuously(self):
        budgets = [Budget(metric="nope", predicate="max", threshold=1)]
        (verdict,) = evaluate(budgets, _snapshot())
        assert verdict.ok and verdict.value is None
        assert "absent" in verdict.detail
        assert verdict.describe().startswith("not measured: nope <= 1")

    def test_absent_required_metric_violates(self):
        budgets = [
            Budget(metric="nope", predicate="max", threshold=1, required=True)
        ]
        (verdict,) = evaluate(budgets, _snapshot())
        assert not verdict.ok and verdict.gating
        assert "required" in verdict.detail

    def test_soft_violation_does_not_gate(self):
        budgets = [
            Budget(metric="c", predicate="max", threshold=1, severity="soft")
        ]
        verdicts = evaluate(budgets, _snapshot(counters={"c": 5}))
        assert not verdicts[0].ok and not verdicts[0].gating
        assert violations(verdicts) == []
        assert violations(verdicts, include_soft=True) == verdicts


class TestRendering:
    def test_violations_sort_first_with_summary(self):
        budgets = [
            Budget(metric="ok.metric", predicate="max", threshold=10),
            Budget(metric="bad.metric", predicate="max", threshold=1),
            Budget(
                metric="soft.metric",
                predicate="max",
                threshold=1,
                severity="soft",
            ),
        ]
        snap = _snapshot(
            counters={"ok.metric": 5, "bad.metric": 5, "soft.metric": 5}
        )
        text = render_verdicts(evaluate(budgets, snap))
        lines = text.splitlines()
        assert lines[0].startswith("VIOLATED (hard): bad.metric")
        assert lines[1].startswith("VIOLATED (soft): soft.metric")
        assert lines[2].startswith("ok: ok.metric")
        assert lines[3] == (
            "3 verdict(s): 1 ok, 0 not measured, "
            "1 soft violation(s), 1 hard violation(s)"
        )

    def test_unmeasured_verdicts_are_counted_apart_from_ok(self):
        budgets = [
            Budget(metric="seen", predicate="max", threshold=10),
            Budget(metric="unseen", predicate="max", threshold=10),
        ]
        text = render_verdicts(evaluate(budgets, _snapshot(counters={"seen": 1})))
        assert "ok: seen" in text
        assert "not measured: unseen" in text
        assert "ok: unseen" not in text
        assert text.splitlines()[-1] == (
            "2 verdict(s): 1 ok, 1 not measured, "
            "0 soft violation(s), 0 hard violation(s)"
        )

    def test_empty_verdicts_render_notice(self):
        assert "no budgets" in render_verdicts([])

    def test_check_snapshot_splits_hard_violations(self, tmp_path):
        path = _write_budgets(
            tmp_path,
            [
                {"metric": "c", "max": 1},
                {"metric": "c", "min": 1, "severity": "soft"},
            ],
        )
        verdicts, hard = check_snapshot(_snapshot(counters={"c": 5}), path)
        assert len(verdicts) == 2
        assert [v.budget.predicate for v in hard] == ["max"]


class TestShippedBudgets:
    def test_shipped_budgets_pass_on_a_real_snapshot(self, batch_snapshot_file):
        """The committed budgets.json must not gate on the current tree,
        and the quick fig10 + fig11 batch measures every budget in it."""
        snapshot = json.loads(batch_snapshot_file.read_text())
        verdicts, hard = check_snapshot(
            snapshot, REPO_ROOT / "benchmarks" / "budgets.json"
        )
        assert verdicts, "shipped budgets evaluated nothing"
        assert hard == [], render_verdicts(hard)
        unmeasured = [v for v in verdicts if v.not_measured]
        assert unmeasured == [], render_verdicts(unmeasured)


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

    def test_out_of_range_quantile_rejected_on_empty_histogram(self):
        with pytest.raises(ConfigurationError, match="quantile"):
            hist_percentile({"count": 0}, 5.0)

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
