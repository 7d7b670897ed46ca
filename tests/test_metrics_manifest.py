"""The metric-name contract (DS301) at run time, and its readers.

The static lint rules check every *call site* against
``docs/metrics.txt``; the emitted-names test checks what a real run
records, including span paths that nesting composes at run time
(``sweep.batch.experiment.fig10.sweep.fig10_nodes``), which no call
site spells out.  Together they mean a metric cannot drift out of the
checked-in registry.

The reader gate closes the other direction: every name the manifest
lists must be read by a budget, the report or a tier-1 test, so a
metric nothing consumes cannot linger.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro import lint
from repro.lint.rules import METRIC_NAME_RE, METRIC_RECEIVERS

REPO = Path(__file__).parent.parent

MANIFEST = lint.MetricManifest.load(REPO / "docs" / "metrics.txt")


def test_manifest_entries_obey_the_registry_grammar():
    for name in MANIFEST.names:
        assert METRIC_NAME_RE.match(name), name
    for prefix in MANIFEST.prefixes:
        # A wildcard is a dotted name cut after a separator.
        assert prefix.endswith("."), prefix
        assert METRIC_NAME_RE.match(prefix + "x"), prefix


def test_every_emitted_name_is_covered_by_the_manifest(batch_snapshot_file):
    snapshot = json.loads(batch_snapshot_file.read_text())
    recorded = [
        *snapshot["counters"],
        *snapshot["timers"],
        *snapshot["gauges"],
        *snapshot["histograms"],
    ]
    assert len(recorded) >= 10
    bad = [name for name in recorded if not METRIC_NAME_RE.match(name)]
    assert not bad, f"names outside the DS301 grammar: {bad}"
    uncovered = [name for name in recorded if not MANIFEST.covers(name)]
    assert not uncovered, f"names missing from docs/metrics.txt: {uncovered}"

    # Span aggregates are keyed by the dot-joined path of open spans;
    # the manifest covers them through the subsystem wildcards
    # (experiment.*, sweep.*, ...) and the concrete top-level names.
    span_paths = list(snapshot["spans"])
    assert "sweep.batch.experiment.fig10.sweep.fig10_nodes" in span_paths
    bad = [path for path in span_paths if not METRIC_NAME_RE.match(path)]
    assert not bad, f"span paths outside the DS301 grammar: {bad}"
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


def test_cli_import_leaves_http_server_unloaded(fresh_python):
    code = "import sys, repro, repro.cli; print('http.server' in sys.modules)"
    assert fresh_python(code).strip() == "False"


_IMPORT_HYGIENE = """
import json, sys
import repro, repro.cli
from repro.experiments.common import get_chip
from repro.experiments import registry

def state():
    return {
        "optimize": "scipy.optimize" in sys.modules,
        "experiments": [
            m for m in registry.MODULES
            if "repro.experiments." + m in sys.modules
        ],
    }

cold = state()
names = registry.names()
looked_up = state()
from repro.power import fit_power_model
from repro.power.leakage import LeakageModel
from repro.power.model import CorePowerModel
from repro.power.vf_curve import VFCurve
from repro.tech.library import NODE_22NM
truth = CorePowerModel(
    ceff=2e-9, pind=0.5, leakage=LeakageModel(i0=0.3),
    curve=VFCurve.for_node(NODE_22NM),
)
fs = [(0.3 + 0.3 * i) * 1e9 for i in range(12)]
fit = fit_power_model(
    fs, [truth.power(f, temperature=80.0) for f in fs], truth.curve,
    LeakageModel(i0=1.0), temperature=80.0,
)
print(json.dumps({
    "cold": cold, "looked_up": looked_up, "fitted": state(), "names": len(names),
    "modules": len(registry.MODULES), "ceff": fit.model.ceff,
}))
"""


def test_cold_start_leaves_optimizer_and_experiments_unloaded(fresh_python):
    # No run pays for scipy.optimize, not even a power-model fit, and a
    # run pays for the experiment modules only when it lists them.
    out = json.loads(fresh_python(_IMPORT_HYGIENE))
    assert out["cold"] == {"optimize": False, "experiments": []}
    assert out["modules"] == out["names"] == 20
    assert out["looked_up"]["optimize"] is False
    assert len(out["looked_up"]["experiments"]) == 20
    assert out["fitted"]["optimize"] is False
    assert out["ceff"] == pytest.approx(2e-9, rel=1e-4)
