"""The repo-wide lint contract: this tree lints clean.

``make test`` runs ``make lint`` first, but the gate is also pinned
here so a plain ``pytest tests/`` catches regressions — a new magic
literal, a bare ``ValueError``, an unregistered metric name — without
the Makefile in the loop.
"""

from __future__ import annotations

from pathlib import Path

from repro import lint
from repro.lint.engine import iter_python_files

REPO = Path(__file__).parent.parent


def _repo_report() -> lint.LintReport:
    return lint.lint_paths(
        [REPO / "src", REPO / "tests"],
        manifest=lint.MetricManifest.load(REPO / "docs" / "metrics.txt"),
    )


def test_repo_lints_clean():
    report = _repo_report()
    assert report.clean, "\n" + report.render_text()
    assert report.files > 150


def test_fixture_corpus_is_skipped_by_the_walk():
    corpus = list((REPO / "tests" / "data" / "lint").glob("*.py"))
    assert corpus, "fixture corpus missing"
    walked = {f.name for f in iter_python_files([REPO / "tests"])}
    assert not walked.intersection(f.name for f in corpus)
