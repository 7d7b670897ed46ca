# Convenience targets for the dark-silicon reproduction.

# Make every target work from a plain checkout (no editable install).
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test lint figures-smoke obs-smoke bench-e2e report experiments examples clean

install:
	pip install -e . || python setup.py develop

test:
	$(MAKE) lint
	pytest tests/
	$(MAKE) figures-smoke
	$(MAKE) obs-smoke

# Project-specific static analysis (repro.lint), two-phase: per-file
# rules (unit-literal, float-eq, exception, metric-name, spawn-safety)
# plus whole-program dimension/spawn/file-handle checks over the project
# call graph.  Module summaries are cached content-addressed under
# .lint-cache, so warm runs only re-summarize edited files.  Exits
# non-zero on any finding not ratified in lint_baseline.json; see
# docs/linting.md.
lint:
	python -m repro.cli lint src tests --cache .lint-cache

# Cold + warm batch pass against a throwaway artifact store: the first
# run computes every registered experiment in quick mode across two
# spawned workers, the second (serial) must be served entirely from the
# store (--expect-cached exits 3 on any recomputation; --profile prints
# the store.* hit counters).  Catches cache-key, canonicalisation or
# fingerprint drift, including keys that differ between processes.
figures-smoke:
	rm -rf .figures-smoke-store
	python -m repro.cli batch --quick --store .figures-smoke-store --workers 2
	python -m repro.cli batch --quick --store .figures-smoke-store --expect-cached --profile
	rm -rf .figures-smoke-store

# Round-trip the one profile artifact on a quick batch of fig10 and
# fig11, which measures every budget: export the run's obs snapshot,
# evaluate the shipped benchmarks/budgets.json against it (every hard
# budget is required, process.max_rss_bytes included, so a missing
# metric fails), and render the markdown report from it.
obs-smoke:
	rm -rf .obs-smoke
	mkdir -p .obs-smoke
	python -m repro.cli batch --quick fig10 fig11 --profile-out .obs-smoke/snapshot.json
	python -m repro.cli obs watch --snapshot .obs-smoke/snapshot.json
	python -m repro.cli report --snapshot .obs-smoke/snapshot.json --out .obs-smoke/report.md
	rm -rf .obs-smoke

# The end-to-end benchmark (benchmarks/e2e, BENCHMARK.json): the
# harness's own tests (~30 s), then one traced run each of dsrem_mixes
# (the mapping layer's smoke run), boost_transients (the transient
# layer's), steady_online (the online runtime's) and quick_batch (every
# registry cell through the batch runner), which print every per-layer
# metric and check the outputs against the stored reference for seed 0.
bench-e2e:
	python -m pytest benchmarks/e2e -q
	python3 benchmarks/e2e/run.py --workload dsrem_mixes --seed 0 --seconds 5 --trace 1
	python3 benchmarks/e2e/run.py --workload boost_transients --seed 0 --seconds 5 --trace 1
	python3 benchmarks/e2e/run.py --workload steady_online --seed 0 --seconds 5 --trace 1
	python3 benchmarks/e2e/run.py --workload quick_batch --seed 0 --seconds 5 --trace 1

# Render an obs snapshot (REPORT_SNAPSHOT=FILE, a --profile-out export)
# and any runs.jsonl ledger (REPORT_STORE=DIR) into the markdown
# dashboard at reports/performance.md.
report:
	python -m repro.cli report $(if $(REPORT_SNAPSHOT),--snapshot $(REPORT_SNAPSHOT)) $(if $(REPORT_STORE),--store $(REPORT_STORE))

experiments:
	python -m repro.cli run all

examples:
	for f in examples/*.py; do echo "== $$f =="; python $$f; done

clean:
	rm -rf build dist src/*.egg-info .figures-smoke-store .lint-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
