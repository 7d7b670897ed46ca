"""Whole-program lint mechanics: summaries, call graph, cache, output.

The per-rule true-positive/clean fixtures live in
``tests/test_lint_rules.py``; this module pins down the phase-2
machinery — cross-module linking and call-graph reachability, the
content-addressed summary cache (cold/warm/invalidation), the DS302
stale-manifest check with its ``--prune-manifest`` fixer, the phase
timings in text and JSON output, and baseline interop for program-rule
findings.
"""

from __future__ import annotations

import json

from repro import lint
from repro.cli import main

#: Two modules: beta hands a worker to a process pool, and the worker
#: reaches alpha's helper, which mutates alpha's module-level cache
#: (DS602) — only visible across the module boundary.
ALPHA = (
    "CACHE = {}\n"
    "\n"
    "def remember(key, value):\n"
    "    CACHE.update({key: value})\n"
    "    return value\n"
)
BETA = (
    "from concurrent.futures import ProcessPoolExecutor\n"
    "\n"
    "from repro.alpha import remember\n"
    "\n"
    "def square(x):\n"
    "    return remember(x, x * x)\n"
    "\n"
    "def run(xs):\n"
    "    with ProcessPoolExecutor() as pool:\n"
    "        return list(pool.map(square, xs))\n"
)


def _write_project(tmp_path, alpha=ALPHA, beta=BETA):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "alpha.py").write_text(alpha)
    (pkg / "beta.py").write_text(beta)
    return tmp_path / "src"


def test_cross_module_spawn_findings(tmp_path):
    src = _write_project(tmp_path)
    report = lint.lint_paths([src])
    (finding,) = report.findings
    assert finding.code == "DS602"
    assert finding.path.endswith("beta.py")
    assert finding.line == 10
    # The mutation lives in alpha, reached through beta's import.
    assert "CACHE.update in remember()" in finding.message


def test_callgraph_resolution_and_reachability(tmp_path):
    import ast

    # The package re-exports alpha's helper; gamma imports it from there.
    modules = (
        ("alpha", ALPHA),
        ("beta", BETA),
        ("__init__", "from repro.alpha import remember\n"),
        ("gamma", "from repro import remember\n\ndef go():\n    remember(1, 2)\n"),
    )
    summaries = [
        lint.summarize_source(
            text,
            f"src/repro/{name}.py",
            ast.parse(text),
            library_rel=f"{name}.py",
            in_library=True,
        )
        for name, text in modules
    ]
    program = lint.Program(summaries)
    beta, gamma = summaries[1], summaries[3]
    assert program.resolve_function(beta, "remember") == "repro.alpha.remember"
    assert program.reachable(["repro.beta.square"]) == {
        "repro.beta.square",
        "repro.alpha.remember",
    }
    # Re-export chasing: repro.remember links to its home module.
    assert program.resolve_function(gamma, "remember") == "repro.alpha.remember"
    assert program.reachable(["repro.gamma.go"]) == {
        "repro.gamma.go",
        "repro.alpha.remember",
    }


def test_summary_cache_cold_then_warm(tmp_path):
    src = _write_project(tmp_path)
    cache = tmp_path / "lint-cache"
    cold = lint.lint_paths([src], cache_dir=cache)
    assert cold.timings["cache_hits"] == 0
    assert cold.timings["cache_misses"] == 2
    warm = lint.lint_paths([src], cache_dir=cache)
    assert warm.timings["cache_hits"] == 2
    assert warm.timings["cache_misses"] == 0
    assert [f.render() for f in warm.findings] == [
        f.render() for f in cold.findings
    ]


def test_summary_cache_invalidates_edited_file(tmp_path):
    src = _write_project(tmp_path)
    cache = tmp_path / "lint-cache"
    lint.lint_paths([src], cache_dir=cache)
    # Fix beta: the worker no longer reaches alpha's cache.
    (src / "repro" / "beta.py").write_text(
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def square(x):\n"
        "    return x * x\n"
        "\n"
        "def run(xs):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(square, xs))\n"
    )
    warm = lint.lint_paths([src], cache_dir=cache)
    assert warm.timings["cache_hits"] == 1  # alpha untouched
    assert warm.timings["cache_misses"] == 1  # beta re-summarized
    assert warm.clean


def test_summary_cache_keyed_on_manifest(tmp_path):
    src = _write_project(
        tmp_path,
        alpha=(
            "from repro import obs\n"
            "\n"
            "def tick():\n"
            '    obs.incr("alpha.ticks")\n'
        ),
        beta="x = 1\n",
    )
    cache = tmp_path / "lint-cache"
    m1 = lint.MetricManifest(["alpha.ticks"])
    r1 = lint.lint_paths([src], manifest=m1, cache_dir=cache)
    assert r1.clean
    # A different manifest must not be served the old DS301 verdicts.
    m2 = lint.MetricManifest(["other.name"])
    r2 = lint.lint_paths([src], manifest=m2, cache_dir=cache)
    assert r2.timings["cache_hits"] == 0
    assert [f.code for f in r2.findings] == ["DS301"]


def test_program_findings_are_baselinable(tmp_path):
    src = _write_project(tmp_path)
    report = lint.lint_paths([src])
    assert not report.clean
    baseline_file = tmp_path / "lint_baseline.json"
    lint.write_baseline(baseline_file, report.findings)
    ratified = lint.lint_paths(
        [src], baseline=lint.Baseline.load(baseline_file)
    )
    assert ratified.clean
    assert ratified.baseline_suppressed == 1


def test_no_program_flag_skips_phase2(tmp_path, capsys):
    src = _write_project(tmp_path)
    assert main(["lint", str(src), "--no-program"]) == 0
    assert "clean" in capsys.readouterr().out


def test_stale_manifest_entries_and_keep(tmp_path):
    manifest = lint.MetricManifest(
        [
            ("thermal.model.solves", 1, False),
            ("runtime.run.*", 2, False),
            ("ghost.metric", 3, False),
            ("reserved.ns", 4, True),
        ],
        path="metrics.txt",
    )
    names = {"thermal.model.solves", "runtime.run"}
    prefixes = set()
    stale = manifest.stale_entries(names, prefixes)
    # runtime.run.* is live: span paths nest under the span's own name;
    # reserved.ns is ratified by '# keep'; only ghost.metric is stale.
    assert stale == [("ghost.metric", 3)]


def test_ds302_and_prune_manifest_cli(tmp_path, capsys):
    src = _write_project(
        tmp_path,
        alpha=(
            "from repro import obs\n"
            "\n"
            "def tick():\n"
            '    obs.incr("alpha.ticks")\n'
        ),
        beta="x = 1\n",
    )
    manifest = tmp_path / "metrics.txt"
    manifest.write_text(
        "alpha.ticks\n"
        "ghost.metric\n"
        "reserved.ns  # keep - emitted by external tooling\n"
    )
    report = lint.lint_paths(
        [src],
        manifest=lint.MetricManifest.load(manifest),
        stale_manifest=True,
    )
    (finding,) = [f for f in report.findings if f.code == "DS302"]
    assert "'ghost.metric'" in finding.message
    assert finding.line == 2

    code = main(
        ["lint", str(src), "--manifest", str(manifest), "--prune-manifest"]
    )
    assert code == 0
    assert "pruned 1" in capsys.readouterr().out
    kept = manifest.read_text().splitlines()
    assert kept == [
        "alpha.ticks",
        "reserved.ns  # keep - emitted by external tooling",
    ]


def test_report_timings_surface_in_text_and_json(tmp_path, capsys):
    src = _write_project(tmp_path, alpha="x = 1\n", beta="y = 2\n")
    assert main(["lint", str(src), "--cache", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    assert "phase1" in out and "phase2" in out and "cache" in out
    assert main(["lint", str(src), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert "phase1_s" in doc["timings"]
