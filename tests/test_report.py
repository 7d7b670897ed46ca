"""The markdown performance report: deterministic rendering + golden."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.manifest import RunManifest
from repro.report import render_report, generate

GOLDEN = Path(__file__).parent / "data" / "report_golden.md"

SNAPSHOT = {
    "version": 2,
    "counters": {"solver.cost.factorizations": 2},
    "timers": {},
    "spans": {
        "experiment.a": {"count": 1, "total_s": 0.02},
        "sweep.hot": {"count": 5, "total_s": 0.14},
        "sweep.cold": {"count": 1, "total_s": 0.001},
    },
    "gauges": {},
    "histograms": {
        # constant distribution -> every percentile exact
        "tsp.budget_w": {
            "count": 4,
            "sum": 12.0,
            "min": 3.0,
            "max": 3.0,
            "buckets": {"2": 4},
        }
    },
}

MANIFESTS = [
    RunManifest(
        experiment="fig1",
        params="{}",
        fingerprint="feedc0de00000002",
        cached=False,
        wall_s=1.5,
        timestamp="2026-08-02T11:00:00+0000",
        host="box",
        python="3.11.7",
    ),
    RunManifest(
        experiment="fig1",
        params="{}",
        fingerprint="feedc0de00000002",
        cached=True,
        wall_s=0.002,
        timestamp="2026-08-02T11:05:00+0000",
        host="box",
        python="3.11.7",
    ),
    RunManifest(
        experiment="fig4",
        params="{}",
        fingerprint="feedc0de00000002",
        cached=False,
        wall_s=0.4,
        timestamp="2026-08-02T11:10:00+0000",
        host="box",
        python="3.11.7",
        error="ValueError: boom",
    ),
]


class TestRenderReport:
    def test_matches_golden(self):
        rendered = render_report(SNAPSHOT, MANIFESTS, top=2, recent=5)
        assert rendered == GOLDEN.read_text()

    def test_generated_line_is_optional(self):
        with_stamp = render_report(
            SNAPSHOT, MANIFESTS, generated="2026-08-06T00:00:00+0000"
        )
        without = render_report(SNAPSHOT, MANIFESTS)
        assert "_Generated: 2026-08-06T00:00:00+0000_" in with_stamp
        assert "_Generated:" not in without

    def test_empty_inputs_still_render(self):
        text = render_report(None, [])
        assert "# Performance report" in text
        assert text.count("No snapshot given") == 2
        assert "No run ledger found" in text

    def test_snapshot_without_spans_or_histograms(self):
        text = render_report({"spans": {}, "histograms": {}}, [])
        assert "No span data in the snapshot." in text
        assert "No histogram data in the snapshot." in text

    def test_store_activity_counts(self):
        text = render_report(None, MANIFESTS)
        assert "**3**" in text
        assert "1 served from store, 1 executed, 1 failed" in text
        assert "**50.0%**" in text

    def test_failed_run_flagged_in_ledger(self):
        text = render_report(None, MANIFESTS)
        assert "FAILED" in text


class TestGenerate:
    def test_writes_report_with_timestamp(self, tmp_path):
        snapshot = tmp_path / "snapshot.json"
        out = tmp_path / "reports" / "performance.md"
        snapshot.write_text(json.dumps(SNAPSHOT))
        written = generate(snapshot, out_path=out)
        assert written == out
        text = out.read_text()
        assert "_Generated:" in text
        assert "`sweep.hot`" in text

    def test_missing_inputs_tolerated(self, tmp_path):
        out = generate(
            store_root=tmp_path / "no-store",
            out_path=tmp_path / "r.md",
        )
        assert "No snapshot given" in out.read_text()

    def test_named_snapshot_must_exist(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            generate(tmp_path / "absent.json", out_path=tmp_path / "r.md")
