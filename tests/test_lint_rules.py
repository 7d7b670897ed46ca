"""Per-rule fixture tests for the repro.lint DS rule set.

Every rule gets one true-positive and one clean-pass fixture under
``tests/data/lint/`` (a directory the repo-wide lint walk skips via its
``.repro-lint-ignore`` marker — the fixtures violate rules on purpose).
Fixtures are linted with library scoping forced on, since the corpus
itself does not live under ``src/repro``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import lint

DATA = Path(__file__).parent / "data" / "lint"

#: Manifest used for the DS301 fixtures (the real one lives in
#: docs/metrics.txt; a small explicit one keeps the test hermetic).
MANIFEST = lint.MetricManifest(["thermal.model.solves", "store.*"])

#: rule code -> number of violations planted in its *_bad.py fixture.
PLANTED = {
    "DS101": 3,
    "DS102": 2,
    "DS201": 2,
    "DS301": 3,
    "DS401": 4,
    "DS402": 4,
    "DS702": 2,
}


def lint_fixture(filename: str, code: str) -> list[lint.Finding]:
    path = DATA / filename
    return lint.lint_source(
        path.read_text(),
        path,
        manifest=MANIFEST,
        library=True,
        select=[code],
    )


@pytest.mark.parametrize("code", sorted(PLANTED))
def test_true_positive_fixture(code):
    findings = lint_fixture(f"{code.lower()}_bad.py", code)
    assert len(findings) == PLANTED[code]
    assert all(f.code == code for f in findings)


@pytest.mark.parametrize("code", sorted(PLANTED))
def test_clean_pass_fixture(code):
    assert lint_fixture(f"{code.lower()}_ok.py", code) == []


def test_ds101_names_the_replacement_constant():
    findings = lint_fixture("ds101_bad.py", "DS101")
    messages = " ".join(f.message for f in findings)
    assert "units.NANO" in messages
    assert "units.MILLI" in messages


def test_ds101_exempts_units_py():
    source = "MILLI = 2.0 * 1e-3\n"
    assert lint.lint_source(source, "src/repro/units.py") == []
    assert len(lint.lint_source(source, "src/repro/power/model.py")) == 1


def test_ds102_points_to_the_sentinel_helper():
    findings = lint_fixture("ds102_bad.py", "DS102")
    assert all("is_gated" in f.message for f in findings)


def test_ds201_library_scoping():
    source = 'raise ValueError("nope")\n'
    assert len(lint.lint_source(source, "src/repro/core/tsp.py")) == 1
    assert lint.lint_source(source, "tests/test_example.py") == []


def test_ds301_distinguishes_grammar_from_manifest():
    findings = lint_fixture("ds301_bad.py", "DS301")
    assert "grammar" in findings[0].message  # BadName
    assert "manifest" in findings[1].message  # unregistered
    assert "prefix" in findings[2].message  # no literal prefix


def test_ds301_without_manifest_checks_grammar_only():
    path = DATA / "ds301_bad.py"
    findings = lint.lint_source(
        path.read_text(), path, library=True, select=["DS301"]
    )
    assert [f.message for f in findings if "grammar" in f.message]
    assert not [f.message for f in findings if "manifest" in f.message]


def test_ds401_reasons_cover_all_offence_kinds():
    findings = lint_fixture("ds401_bad.py", "DS401")
    messages = " ".join(f.message for f in findings)
    assert "lambda" in messages
    assert "closure" in messages
    assert "'global'" in messages


def test_ds401_applies_outside_the_library_too():
    path = DATA / "ds401_bad.py"
    findings = lint.lint_source(
        path.read_text(), path, library=False, select=["DS401"]
    )
    assert len(findings) == PLANTED["DS401"]


def test_ds402_suggests_deterministic_replacements():
    findings = lint_fixture("ds402_bad.py", "DS402")
    messages = " ".join(f.message for f in findings)
    assert "perf_counter" in messages
    assert "default_rng" in messages


def test_ds402_exempts_the_obs_layer():
    source = "import time\nanchor = time.time()\n"
    assert lint.lint_source(source, "src/repro/obs/registry.py") == []
    assert len(lint.lint_source(source, "src/repro/runtime/simulator.py")) == 1


def test_every_rule_has_both_fixtures():
    # DS302 (the stale-manifest check) needs a whole-tree walk plus a
    # manifest file, so it is exercised in tests/test_lint_program.py
    # rather than by a fixture pair here.
    assert {cls.code for cls in lint.all_rules()} == set(PLANTED)
    assert lint.all_codes() == set(PLANTED) | {"DS302"}
    for code in set(PLANTED):
        assert (DATA / f"{code.lower()}_bad.py").exists()
        assert (DATA / f"{code.lower()}_ok.py").exists()


def test_program_findings_respect_inline_suppressions():
    source = (
        "def read_header(path):\n"
        "    fh = open(path)  # repro-lint: disable=DS702 - test\n"
        "    return fh.readline()\n"
    )
    assert lint.lint_source(source, "x.py", select=["DS702"]) == []
    unsuppressed = source.replace("  # repro-lint: disable=DS702 - test", "")
    assert len(lint.lint_source(unsuppressed, "x.py", select=["DS702"])) == 1


def test_ds702_exempts_lifecycle_functions_only():
    body = "(self, path):\n        self.n = 0\n        fh = open(path)\n"
    for name, flagged in (
        ("_start_capture", False),
        ("open_log", False),
        ("serve", False),
        ("capture", True),
        ("restart", True),
    ):
        source = f"class Log:\n    def {name}{body}"
        findings = lint.lint_source(source, "x.py", select=["DS702"])
        assert len(findings) == flagged, name
        if flagged:
            assert f"in Log.{name}()" in findings[0].message
