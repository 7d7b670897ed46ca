"""Run provenance: RunManifest lines, the runs.jsonl ledger, wiring."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.experiments import registry
from repro.obs.manifest import (
    RunManifest,
    append_manifest,
    build_manifest,
    read_manifests,
    runs_path,
    snapshot_digest,
)
from repro.store import ArtifactStore, BatchCell, BatchRunner, fetch_or_run


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _manifest(**overrides) -> RunManifest:
    base = dict(
        experiment="fig1",
        params="{}",
        fingerprint="a" * 16,
        cached=False,
        wall_s=1.25,
        timestamp="2026-08-06T00:00:00+0000",
        host="box",
        python="3.11.7",
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRunManifest:
    def test_line_roundtrip(self):
        manifest = _manifest(obs_digest="b" * 16, trace_path="t.json")
        line = manifest.to_line()
        assert line.endswith("\n")
        assert RunManifest.from_line(line) == manifest

    def test_line_is_versioned_sorted_json(self):
        record = json.loads(_manifest().to_line())
        assert record["version"] == 1
        assert list(record) == sorted(record)

    def test_error_field_survives(self):
        manifest = _manifest(error="ValueError: boom")
        assert RunManifest.from_line(manifest.to_line()).error == (
            "ValueError: boom"
        )


class TestDigests:
    def test_snapshot_digest_is_deterministic(self):
        snap = {"counters": {"a": 1}, "version": 2}
        assert snapshot_digest(snap) == snapshot_digest(dict(snap))
        assert len(snapshot_digest(snap)) == 16

    def test_snapshot_digest_changes_with_content(self):
        assert snapshot_digest({"counters": {"a": 1}}) != snapshot_digest(
            {"counters": {"a": 2}}
        )


class TestLedger:
    def test_append_and_read_in_order(self, tmp_path):
        append_manifest(tmp_path, _manifest(experiment="fig1"))
        append_manifest(tmp_path, _manifest(experiment="fig2"))
        manifests = read_manifests(tmp_path)
        assert [m.experiment for m in manifests] == ["fig1", "fig2"]

    def test_read_missing_ledger_is_empty(self, tmp_path):
        assert read_manifests(tmp_path / "nowhere") == []

    def test_read_skips_unparseable_lines(self, tmp_path):
        path = runs_path(tmp_path)
        path.write_text(
            _manifest(experiment="ok").to_line()
            + "{torn line\n"
            + _manifest(experiment="also_ok").to_line()
        )
        manifests = read_manifests(tmp_path)
        assert [m.experiment for m in manifests] == ["ok", "also_ok"]

    def test_build_manifest_stamps_environment(self):
        manifest = build_manifest("fig1", "{}", "a" * 16, False, 0.5)
        assert manifest.host
        assert manifest.python.count(".") == 2
        assert "T" in manifest.timestamp

    def test_obs_digest_only_when_enabled(self):
        was_enabled = obs.enabled()
        obs.disable()
        try:
            assert build_manifest("f", "{}", "a" * 16, False, 0).obs_digest is None
            obs.enable()
            assert build_manifest("f", "{}", "a" * 16, False, 0).obs_digest
        finally:
            if not was_enabled:
                obs.disable()


class TestWiring:
    def test_fetch_or_run_appends_for_miss_and_hit(self, store):
        spec = registry.get("fig1")
        params = spec.resolve()
        fetch_or_run(spec, params, store=store)
        fetch_or_run(spec, params, store=store, trace_path="t.json")
        manifests = read_manifests(store.root)
        assert [m.cached for m in manifests] == [False, True]
        assert manifests[0].experiment == "fig1"
        assert manifests[0].params == spec.canonical_params(params)
        assert manifests[0].fingerprint == spec.fingerprint()
        assert manifests[1].trace_path == "t.json"

    def test_fetch_or_run_without_store_records_nothing(self, tmp_path):
        spec = registry.get("fig1")
        fetch_or_run(spec, spec.resolve())
        assert read_manifests(tmp_path) == []

    def test_batch_appends_one_line_per_cell(self, store):
        cells = [
            BatchCell(name, registry.get(name).resolve(quick=True))
            for name in ("fig1", "fig2")
        ]
        BatchRunner(store=store).run(cells)
        BatchRunner(store=store).run(cells)
        manifests = read_manifests(store.root)
        assert [m.experiment for m in manifests] == [
            "fig1", "fig2", "fig1", "fig2",
        ]
        assert [m.cached for m in manifests] == [False, False, True, True]
        assert all(m.error is None for m in manifests)

    def test_ledger_does_not_pollute_store_entries(self, store):
        spec = registry.get("fig1")
        fetch_or_run(spec, spec.resolve(), store=store)
        assert runs_path(store.root).is_file()
        # entries() lists artifact envelopes only; the ledger (a .jsonl
        # at the root) must not appear as a store entry.
        assert all(path.suffix == ".json" for path in store.entries())
        assert all(
            path.name != runs_path(store.root).name
            for path in store.entries()
        )
