"""Engine mechanics of repro.lint: suppressions, discovery, output.

The per-rule behaviour is covered by ``tests/test_lint_rules.py``
against the fixture corpus; this module pins down the machinery those
rules plug into — inline suppression comments, file discovery, the
manifest format, and the CLI's output/exit-code contract.
"""

from __future__ import annotations

import json

import pytest

from repro import lint
from repro.cli import main
from repro.errors import ConfigurationError
from repro.lint.engine import IGNORE_MARKER, iter_python_files

LIB_PATH = "src/repro/example.py"

#: One DS102 violation on line 2.
VIOLATION = "def is_idle(f):\n    return f == 0.0\n"


def test_findings_carry_location_and_render():
    (finding,) = lint.lint_source(VIOLATION, LIB_PATH)
    assert (finding.code, finding.line) == ("DS102", 2)
    assert finding.render().startswith("src/repro/example.py:2:")


def test_suppression_of_the_matching_code():
    source = VIOLATION.replace(
        "== 0.0", "== 0.0  # repro-lint: disable=DS102 - sentinel"
    )
    assert lint.lint_source(source, LIB_PATH) == []


def test_suppression_of_another_code_does_not_silence():
    source = VIOLATION.replace("== 0.0", "== 0.0  # repro-lint: disable=DS101")
    assert len(lint.lint_source(source, LIB_PATH)) == 1


def test_bare_disable_silences_every_code():
    source = VIOLATION.replace("== 0.0", "== 0.0  # repro-lint: disable")
    assert lint.lint_source(source, LIB_PATH) == []


def test_suppression_with_code_list():
    source = VIOLATION.replace(
        "== 0.0", "== 0.0  # repro-lint: disable=DS101,DS102"
    )
    assert lint.lint_source(source, LIB_PATH) == []


def test_suppression_only_affects_its_own_line():
    source = (
        "def is_idle(f):\n"
        "    a = f == 0.0  # repro-lint: disable=DS102 - sentinel\n"
        "    b = f == 1.0\n"
        "    return a or b\n"
    )
    (finding,) = lint.lint_source(source, LIB_PATH)
    assert finding.line == 3


def test_select_restricts_rule_codes():
    source = "x = 2.0 * 1e-3\ny = x == 0.0\n"
    codes = [f.code for f in lint.lint_source(source, LIB_PATH)]
    assert codes == ["DS101", "DS102"]
    only = lint.lint_source(source, LIB_PATH, select=["DS101"])
    assert [f.code for f in only] == ["DS101"]


def test_syntax_error_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="cannot parse"):
        lint.lint_source("def broken(:\n", LIB_PATH)


def test_manifest_wildcards_and_prefixes(tmp_path):
    manifest_file = tmp_path / "metrics.txt"
    manifest_file.write_text(
        "# comment\nthermal.model.solves  # trailing comment\nstore.*\n\n"
    )
    manifest = lint.MetricManifest.load(manifest_file)
    assert manifest.covers("thermal.model.solves")
    assert manifest.covers("store.hits")
    assert not manifest.covers("thermal.model.other")
    assert manifest.covers_prefix("store.")
    assert manifest.covers_prefix("thermal.model.")
    assert not manifest.covers_prefix("runtime.")


def _write_library_tree(tmp_path, source=VIOLATION):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "example.py").write_text(source)
    return tmp_path / "src"


def test_iter_python_files_skips_marked_directories(tmp_path):
    src = _write_library_tree(tmp_path)
    fixtures = src / "repro" / "fixtures"
    fixtures.mkdir()
    (fixtures / IGNORE_MARKER).write_text("")
    (fixtures / "bad.py").write_text("x = 1\n")
    (src / "repro" / "__pycache__").mkdir()
    (src / "repro" / "__pycache__" / "junk.py").write_text("x = 1\n")
    assert [f.name for f in iter_python_files([src])] == ["example.py"]
    with pytest.raises(ConfigurationError, match="not a python file"):
        iter_python_files([src / "repro" / "fixtures" / IGNORE_MARKER])


def test_cli_text_output_and_exit_codes(tmp_path, capsys):
    src = _write_library_tree(tmp_path)
    assert main(["lint", str(src)]) == 1
    out = capsys.readouterr().out
    assert "DS102" in out
    assert "[lint] 1 file(s): 1 finding(s) (DS102: 1)" in out

    clean = tmp_path / "clean"
    (clean / "src" / "repro").mkdir(parents=True)
    (clean / "src" / "repro" / "ok.py").write_text("x = 1\n")
    assert main(["lint", str(clean / "src")]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_output_schema(tmp_path, capsys):
    src = _write_library_tree(tmp_path)
    assert main(["lint", str(src), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"version", "files", "counts", "findings"}
    assert doc["version"] == 2
    assert doc["files"] == 1
    assert doc["counts"] == {"DS102": 1}
    (finding,) = doc["findings"]
    assert set(finding) == {"code", "path", "line", "col", "message"}
    assert finding["code"] == "DS102"


def test_cli_missing_manifest_is_a_usage_error(tmp_path, capsys):
    src = _write_library_tree(tmp_path)
    code = main(
        ["lint", str(src), "--manifest", str(tmp_path / "missing.txt")]
    )
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_cli_unknown_select_code_is_a_usage_error(tmp_path, capsys):
    src = _write_library_tree(tmp_path)
    assert main(["lint", str(src), "--select", "DS102,DS501"]) == 2
    assert "DS501" in capsys.readouterr().err


def test_emit_manifest_harvests_names_and_prefixes(tmp_path, capsys):
    src = _write_library_tree(
        tmp_path,
        "from repro import obs\n"
        "def f(kind):\n"
        '    obs.incr("thermal.model.solves")\n'
        '    obs.incr(f"store.{kind}")\n',
    )
    assert main(["lint", str(src), "--emit-manifest"]) == 0
    out = capsys.readouterr().out
    assert "thermal.model.solves" in out
    assert "store.*" in out
