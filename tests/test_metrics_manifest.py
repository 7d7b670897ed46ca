"""The runtime arm of the metric-name contract (DS301), and its readers.

The static lint rule checks every *call site* against
``docs/metrics.txt``; these tests check the *emissions*: with name
validation on, an instrumented run across every hot subsystem must
produce only names the registry grammar accepts and the manifest
covers.  Together the two arms mean a metric can neither be recorded
under a malformed name nor drift out of the checked-in registry.

The reader gate closes the other direction: every name the manifest
lists must be read by a budget, the report or a tier-1 test, so a
metric nothing consumes cannot linger.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import lint, obs
from repro.errors import ConfigurationError
from repro.lint.rules import METRIC_RECEIVERS
from repro.obs.registry import METRIC_NAME_RE, Registry

REPO = Path(__file__).parent.parent

MANIFEST = lint.MetricManifest.load(REPO / "docs" / "metrics.txt")


@pytest.fixture()
def restore_obs():
    was_enabled = obs.enabled()
    yield
    obs.validate_names(False)
    obs.reset()
    if not was_enabled:
        obs.disable()


def test_manifest_entries_obey_the_registry_grammar():
    for name in MANIFEST.names:
        assert METRIC_NAME_RE.match(name), name
    for prefix in MANIFEST.prefixes:
        # A wildcard is a dotted name cut after a separator.
        assert prefix.endswith("."), prefix
        assert METRIC_NAME_RE.match(prefix + "x"), prefix


def test_registry_rejects_malformed_names_when_validating():
    registry = Registry(enabled=True, validate_names=True)
    with pytest.raises(ConfigurationError, match="metric name"):
        registry.incr("Bad Name!")
    with pytest.raises(ConfigurationError):
        registry.gauge("trailing.", 1.0)
    registry.incr("thermal.model.solves")  # cached as valid
    registry.incr("thermal.model.solves")
    assert registry.snapshot()["counters"]["thermal.model.solves"] == 2


def test_validation_is_off_by_default_and_skipped_when_disabled():
    assert not Registry(enabled=True).validates_names
    # The disabled registry keeps its single-boolean fast path: nothing
    # is validated (or recorded) before the enabled check.
    dormant = Registry(enabled=False, validate_names=True)
    dormant.incr("Bad Name!")
    assert dormant.snapshot()["counters"] == {}


def test_module_level_validation_hook(restore_obs):
    obs.enable()
    obs.reset()
    obs.validate_names()
    with pytest.raises(ConfigurationError):
        obs.incr("NotDotted")
    obs.incr("thermal.model.solves")
    assert obs.snapshot()["counters"]["thermal.model.solves"] == 1


def test_every_emitted_name_is_covered_by_the_manifest(restore_obs):
    from repro.cli import _run_obs_demo

    obs.validate_names()
    snapshot = _run_obs_demo()

    flat = [
        *snapshot["counters"],
        *snapshot["timers"],
        *snapshot["gauges"],
        *snapshot["histograms"],
    ]
    assert len(flat) >= 10
    uncovered = [name for name in flat if not MANIFEST.covers(name)]
    assert not uncovered, f"names missing from docs/metrics.txt: {uncovered}"

    # Span aggregates are keyed by the dot-joined path of open spans;
    # the manifest covers them through the subsystem wildcards
    # (experiment.*, sweep.*, ...) and the concrete top-level names.
    span_paths = list(snapshot["spans"])
    assert span_paths
    uncovered_spans = [p for p in span_paths if not MANIFEST.covers(p)]
    assert not uncovered_spans, (
        f"span paths missing from docs/metrics.txt: {uncovered_spans}"
    )


def _rendered_names() -> set[str]:
    """Literal names recorded as spans or histograms under ``src/``.

    ``darksilicon report`` renders every span and every histogram of a
    snapshot, so each of these names has the report as its reader.
    """
    names = set()
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("span", "histogram")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in METRIC_RECEIVERS
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                continue
            names.add(node.args[0].value)
    return names


def _test_texts() -> list[str]:
    """Tier-1 test sources, minus this file and the lint fixtures."""
    lint_fixtures = REPO / "tests" / "data" / "lint"
    return [
        path.read_text()
        for path in (REPO / "tests").rglob("*.py")
        if path.resolve() != Path(__file__).resolve()
        and lint_fixtures not in path.parents
    ]


def test_every_manifest_name_has_a_reader():
    budgets = json.loads((REPO / "benchmarks" / "budgets.json").read_text())
    budgeted = {b["metric"] for b in budgets["budgets"]}
    rendered = _rendered_names()
    texts = _test_texts()

    def named_by_a_test(name: str) -> bool:
        token = re.compile(r"(?<![\w.])" + re.escape(name) + r"(?![\w.])")
        return any(token.search(text) for text in texts)

    unread = [
        name
        for name in sorted(MANIFEST.names)
        if name not in budgeted
        and name not in rendered
        and not named_by_a_test(name)
    ]
    assert not unread, (
        f"manifest names nothing reads (budget, report or test): {unread}; "
        "delete the call site and the line, or add a reader"
    )


def test_cli_import_leaves_http_server_unloaded():
    code = "import sys, repro, repro.cli; print('http.server' in sys.modules)"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ),
    }
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
