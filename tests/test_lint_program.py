"""The stale-manifest check (DS302) and its ``--prune-manifest`` fixer.

DS302 is the one check that needs every file: it runs after the
per-file pass, over the metric names harvested from the whole tree.
The per-rule true-positive/clean fixtures live in
``tests/test_lint_rules.py``.
"""

from __future__ import annotations

from repro import lint
from repro.cli import main


def _write_project(tmp_path, alpha, beta):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "alpha.py").write_text(alpha)
    (pkg / "beta.py").write_text(beta)
    return tmp_path / "src"


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
