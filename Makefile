# Convenience targets for the dark-silicon reproduction.

# Make every target work from a plain checkout (no editable install).
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test lint figures-smoke obs-smoke bench bench-smoke bench-e2e bench-track bench-backends report experiments examples clean

install:
	pip install -e . || python setup.py develop

test:
	$(MAKE) lint
	pytest tests/
	$(MAKE) figures-smoke
	$(MAKE) obs-smoke

# Project-specific static analysis (repro.lint), two-phase: per-file
# rules (unit-literal, float-eq, exception, metric-name, spawn-safety)
# plus whole-program dimension/lock/lifecycle checks over the project
# call graph.  Module summaries are cached content-addressed under
# .lint-cache, so warm runs only re-summarize edited files.  Exits
# non-zero on any finding not ratified in lint_baseline.json; see
# docs/linting.md.
lint:
	python -m repro.cli lint src tests --cache .lint-cache

# Cold + warm batch pass against a throwaway artifact store: the first
# run computes every registered experiment in quick mode, the second
# must be served entirely from the store (--expect-cached exits 3 on
# any recomputation; --profile prints the store.* hit counters).
# Catches cache-key, canonicalisation or fingerprint drift.
figures-smoke:
	rm -rf .figures-smoke-store
	python -m repro.cli batch --quick --store .figures-smoke-store
	python -m repro.cli batch --quick --store .figures-smoke-store --expect-cached --profile
	rm -rf .figures-smoke-store

# Round-trip the continuous-telemetry layer on one quick experiment:
# run with the background sampler streaming to JSONL and attribution on,
# tail the sample stream, render the snapshot in the Prometheus text
# format, and evaluate the shipped benchmarks/budgets.json against it.
obs-smoke:
	rm -rf .obs-smoke
	mkdir -p .obs-smoke
	python -m repro.cli run fig5 --quick --sample-out .obs-smoke/samples.jsonl \
		--sample-interval 0.05 --attribution --profile-out .obs-smoke/snapshot.json
	python -m repro.cli obs tail --follow .obs-smoke/samples.jsonl
	python -m repro.cli obs prom --snapshot .obs-smoke/snapshot.json > .obs-smoke/metrics.prom
	python -m repro.cli obs watch --snapshot .obs-smoke/snapshot.json
	rm -rf .obs-smoke

bench:
	pytest benchmarks/ --benchmark-only

# Fast sanity pass over the hot-path benchmarks: fails on any exception
# (import errors, solver regressions), without judging timings.
bench-smoke:
	pytest benchmarks/bench_fig10_tsp.py benchmarks/bench_runtime_policies.py -x -q --benchmark-only

# The end-to-end benchmark (benchmarks/e2e, BENCHMARK.json): the
# harness's own tests (~30 s), then one traced dsrem_mixes run and one
# traced boost_transients run (the transient layer's smoke run) that
# print every per-layer metric and check the outputs against the
# stored reference for seed 0.
bench-e2e:
	python -m pytest benchmarks/e2e -q
	python3 benchmarks/e2e/run.py --workload dsrem_mixes --seed 0 --seconds 5 --trace 1
	python3 benchmarks/e2e/run.py --workload boost_transients --seed 0 --seconds 5 --trace 1

# Timed + instrumented trajectory entry: runs the bench-smoke set with
# the observability registry on, appends wall-clock and registry
# snapshots to BENCH_TRACK.json, and fails on >20% regression vs the
# committed benchmarks/bench_baseline.json.
bench-track:
	python benchmarks/track.py

# Smoke-run the Figure 10 TSP bench under every thermal solver backend
# (dense, sparse, compiled) and print the wall-clock comparison.
bench-backends:
	python benchmarks/track.py --backends

# Render BENCH_TRACK.json (+ any runs.jsonl ledger passed via
# REPORT_STORE=DIR) into the markdown dashboard at reports/performance.md.
report:
	python -m repro.cli report $(if $(REPORT_STORE),--store $(REPORT_STORE))

experiments:
	python -m repro.cli run all

examples:
	for f in examples/*.py; do echo "== $$f =="; python $$f; done

clean:
	rm -rf build dist src/*.egg-info .pytest_benchmarks .benchmarks .figures-smoke-store .lint-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
