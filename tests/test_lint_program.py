"""Whole-program lint mechanics: summaries, call graph, cache, output.

The per-rule true-positive/clean fixtures live in
``tests/test_lint_rules.py``; this module pins down the phase-2
machinery — cross-module linking and dimension propagation, the
content-addressed summary cache (cold/warm/invalidation), the DS302
stale-manifest check with its ``--prune-manifest`` fixer, the phase
timings in text and JSON output, and baseline interop for program-rule
findings.
"""

from __future__ import annotations

import json

from repro import lint
from repro.cli import main

#: Two modules: beta calls alpha's converter with the wrong dimension
#: (DS502) and mixes the returned hertz with a temperature (DS501) —
#: both only visible across the module boundary.
ALPHA = (
    "from repro import units\n"
    "\n"
    "def speed(f_ghz: float) -> float:\n"
    "    return units.ghz(f_ghz)\n"
)
BETA = (
    "from repro.alpha import speed\n"
    "\n"
    "def run(dt_s: float, t_die_degc: float) -> float:\n"
    "    f = speed(dt_s)\n"
    "    return f + t_die_degc\n"
)


def _write_project(tmp_path, alpha=ALPHA, beta=BETA):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "alpha.py").write_text(alpha)
    (pkg / "beta.py").write_text(beta)
    return tmp_path / "src"


def test_cross_module_dimension_findings(tmp_path):
    src = _write_project(tmp_path)
    report = lint.lint_paths([src])
    codes = sorted(f.code for f in report.findings)
    assert codes == ["DS501", "DS502"]
    by_code = {f.code: f for f in report.findings}
    # DS502: alpha.speed expects gigahertz, beta passes seconds.
    assert "expects 'ghz' but receives 's'" in by_code["DS502"].message
    # DS501: speed()'s return dimension (hz, via units.ghz) propagated
    # through the call graph into beta's addition with a temperature.
    assert "'hz' and 'temp'" in by_code["DS501"].message
    assert by_code["DS501"].path.endswith("beta.py")


def test_callgraph_resolution_and_reachability(tmp_path):
    import ast

    summaries = []
    for name, text in (("alpha", ALPHA), ("beta", BETA)):
        path = f"src/repro/{name}.py"
        summaries.append(
            lint.summarize_source(
                text,
                path,
                ast.parse(text),
                library_rel=f"{name}.py",
                in_library=True,
            )
        )
    program = lint.Program(summaries)
    beta = summaries[1]
    assert program.resolve_function(beta, "speed") == "repro.alpha.speed"
    assert program.reachable(["repro.beta.run"]) == {
        "repro.beta.run",
        "repro.alpha.speed",
    }
    assert program.return_dims()["repro.alpha.speed"] == "hz"


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
    # Fix beta: pass the right dimension, drop the mixed addition.
    (src / "repro" / "beta.py").write_text(
        "from repro.alpha import speed\n"
        "\n"
        "def run(f_cap_ghz: float) -> float:\n"
        "    return speed(f_cap_ghz)\n"
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
    assert ratified.baseline_suppressed == 2


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
