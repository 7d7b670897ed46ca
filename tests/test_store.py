"""Artifact-store and batch-runner tests."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.experiments import registry
from repro.io import decode_value
from repro.store import ArtifactStore, BatchCell, BatchRunner


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture()
def fig1(store):
    """A stored fig1 cell: (spec, canonical params, fingerprint)."""
    spec = registry.get("fig1")
    return spec, spec.canonical_params(spec.resolve()), spec.fingerprint()


def _put(store, fig1):
    """Run fig1 and store its payload; returns the envelope path."""
    spec, canonical, fp = fig1
    return store.put_payload(spec.name, canonical, fp, spec.run().to_payload())


class TestArtifactStore:
    def test_miss_then_hit(self, store, fig1):
        spec, canonical, fp = fig1
        assert store.get_payload(spec.name, canonical, fp) is None
        result = spec.run()
        store.put_payload(spec.name, canonical, fp, result.to_payload())
        restored = decode_value(store.get_payload(spec.name, canonical, fp))
        assert restored.rows() == result.rows()
        assert store.counters == {
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "writes": 1,
            "bypasses": 0,
        }

    def test_counters_mirrored_to_obs(self, store, fig1):
        spec, canonical, fp = fig1
        obs.enable()
        obs.reset()
        try:
            store.get_payload(spec.name, canonical, fp)
            _put(store, fig1)
            store.get_payload(spec.name, canonical, fp)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["store.misses"] == 1
        assert counters["store.writes"] == 1
        assert counters["store.hits"] == 1

    def test_force_bypasses(self, store, fig1):
        spec, canonical, fp = fig1
        _put(store, fig1)
        assert store.get_payload(spec.name, canonical, fp, force=True) is None
        assert store.counters["bypasses"] == 1
        assert store.counters["hits"] == 0

    def test_fingerprint_mismatch_invalidates_and_unlinks(self, store, fig1):
        spec, canonical, fp = fig1
        path = _put(store, fig1)
        assert path.exists()
        assert store.get_payload(spec.name, canonical, "0" * 16) is None
        assert store.counters["invalidations"] == 1
        assert store.counters["misses"] == 1
        assert not path.exists()

    def test_schema_version_mismatch_invalidates(self, store, fig1):
        spec, canonical, fp = fig1
        path = _put(store, fig1)
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = -1
        path.write_text(json.dumps(envelope))
        assert store.get_payload(spec.name, canonical, fp) is None
        assert store.counters["invalidations"] == 1

    def test_torn_envelope_invalidates(self, store, fig1):
        spec, canonical, fp = fig1
        path = _put(store, fig1)
        path.write_text('{"schema_version": 1, "trunc')
        assert store.get_payload(spec.name, canonical, fp) is None
        assert store.counters["invalidations"] == 1
        assert not path.exists()

    def test_write_is_atomic_no_temp_left_behind(self, store, fig1):
        path = _put(store, fig1)
        leftovers = [
            p for p in path.parent.iterdir() if p.suffix != ".json"
        ]
        assert leftovers == []
        assert store.entries() == [path]

    def test_address_is_param_sensitive(self, store):
        spec = registry.get("fig2")
        a = store.path_for(
            spec.name, spec.canonical_params(spec.resolve())
        )
        b = store.path_for(
            spec.name,
            spec.canonical_params(spec.resolve({"n_samples": 5})),
        )
        assert a != b


class TestSingleCell:
    """One cell through the runner, as ``run`` and summary's siblings go."""

    def _one(self, store=None, force=False):
        cell = BatchCell("fig1", registry.get("fig1").resolve())
        (outcome,) = BatchRunner(store=store).run([cell], force=force)
        assert outcome.ok
        return outcome

    def test_no_store_always_executes(self):
        outcome = self._one()
        assert not outcome.cached
        assert outcome.result.rows()

    def test_cold_then_warm(self, store):
        first, second = self._one(store), self._one(store)
        assert (first.cached, second.cached) == (False, True)
        assert second.result.rows() == first.result.rows()

    def test_force_recomputes_and_overwrites(self, store):
        self._one(store)
        assert not self._one(store, force=True).cached
        assert store.counters["writes"] == 2

    def test_stale_fingerprint_recomputes(self, store, fig1):
        spec, canonical, _ = fig1
        stale = spec.run().to_payload()
        store.put_payload(spec.name, canonical, "0" * 16, stale)
        assert not self._one(store).cached
        assert store.counters["invalidations"] == 1
        assert self._one(store).cached


class TestBatchRunner:
    CELL_NAMES = ["fig1", "fig2", "fig4"]

    def _cells(self):
        return [
            BatchCell(name, registry.get(name).resolve(quick=True))
            for name in self.CELL_NAMES
        ]

    def test_cold_batch_executes_and_persists(self, store):
        runner = BatchRunner(store=store)
        outcomes = runner.run(self._cells())
        assert [o.cell.experiment for o in outcomes] == self.CELL_NAMES
        assert all(o.ok and not o.cached for o in outcomes)
        assert store.counters["writes"] == len(outcomes)

    def test_warm_batch_is_fully_cache_served(self, store):
        BatchRunner(store=store).run(self._cells())
        warm_store = ArtifactStore(store.root)
        outcomes = BatchRunner(store=warm_store).run(self._cells())
        assert all(o.ok and o.cached for o in outcomes)
        assert warm_store.counters["hits"] == len(outcomes)
        assert warm_store.counters["misses"] == 0

    def test_force_reruns_warm_cells(self, store):
        BatchRunner(store=store).run(self._cells())
        outcomes = BatchRunner(store=store).run(self._cells(), force=True)
        assert all(o.ok and not o.cached for o in outcomes)

    def test_no_store_runs_everything(self):
        outcomes = BatchRunner().run(self._cells())
        assert all(o.ok and not o.cached for o in outcomes)

    def test_cell_error_is_captured_not_raised(self, store):
        cells = [
            BatchCell("fig1", registry.get("fig1").resolve()),
            BatchCell("fig2", {"node_name": "not-a-node", "n_samples": 4}),
        ]
        outcomes = BatchRunner(store=store).run(cells)
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].result is None
        assert "not-a-node" in outcomes[1].error

    def test_failed_cell_keeps_its_traceback(self, monkeypatch):
        def explode(**kwargs):
            raise ValueError("exploded")

        spec = registry.get("fig1")
        monkeypatch.setitem(
            registry._REGISTRY,
            "fig1",
            dataclasses.replace(spec, runner=explode, params=()),
        )
        (outcome,) = BatchRunner().run([BatchCell("fig1", {})])
        assert outcome.error == "ValueError: exploded"
        assert "in explode" in outcome.trace
        assert outcome.trace.rstrip().endswith("ValueError: exploded")

    def test_unserialisable_result_fails_its_cell(self, store, monkeypatch):
        spec = registry.get("fig1")
        monkeypatch.setitem(
            registry._REGISTRY,
            "fig1",
            dataclasses.replace(spec, runner=lambda: object(), params=()),
        )
        (outcome,) = BatchRunner(store=store).run([BatchCell("fig1", {})])
        assert outcome.error.startswith("ConfigurationError: result of 'fig1'")
        assert "to_payload" in outcome.error
        assert store.entries() == []

    def test_store_aware_cell_runs_in_second_wave(self, store):
        order = []

        from repro.perf.sweep import SweepRunner

        class RecordingSweep(SweepRunner):
            def map(self, items, fn, stage=None, **kwargs):
                order.append((stage, [item[0] for item in items]))
                return super().map(items, fn, stage=stage, **kwargs)

        cells = [
            BatchCell(
                "summary",
                registry.get("summary").resolve({"duration": 0.5}),
            ),
            BatchCell("fig1", registry.get("fig1").resolve()),
        ]
        runner = BatchRunner(store=store, sweep=RecordingSweep())
        outcomes = runner.run(cells)
        assert all(o.ok for o in outcomes)
        assert [stage for stage, _ in order] == ["batch", "batch.store_aware"]
        assert order[0][1] == ["fig1"]
        assert order[1][1] == ["summary"]
        # summary's sibling fetches populated the store beyond the two
        # explicit cells.
        assert len(store.entries()) > 2


def test_worker_count_does_not_change_any_payload(tmp_path):
    # Every quick cell, run serially and across two spawned workers (which
    # resolve their specs through the lazily loaded registry), must store
    # byte-identical envelopes under identical keys.
    from repro.perf.sweep import SweepRunner

    cells = [
        BatchCell(name, registry.get(name).resolve(quick=True))
        for name in registry.names()
    ]
    envelopes = []
    for workers, root in ((1, tmp_path / "serial"), (2, tmp_path / "pool")):
        store = ArtifactStore(root)
        runner = BatchRunner(store=store, sweep=SweepRunner(max_workers=workers))
        outcomes = runner.run(cells)
        assert [o.error for o in outcomes if not o.ok] == []
        envelopes.append(
            {p.relative_to(root): p.read_bytes() for p in store.entries()}
        )
    serial, pool = envelopes
    assert len(serial) >= len(cells)
    assert sorted(serial) == sorted(pool)
    differing = [str(p) for p in serial if serial[p] != pool[p]]
    assert differing == []
