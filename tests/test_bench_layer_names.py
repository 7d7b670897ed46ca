"""Every entry point the end-to-end benchmark's layer tracer wraps resolves.

``benchmarks/e2e/layers.py`` attributes time to layers by wrapping named
functions and methods of ``repro`` (``LAYERS``).  A name that no longer
resolves — a deleted or renamed method — turns its layer's metrics into
``null`` ("not measured") in every benchmark run, and so does a solve that
no longer passes through a backend ``solve``.  Run this before the
benchmark whenever a change deletes or renames a public function or
method.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from repro.experiments.common import get_chip

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_resolve_and_every_layer_metric_is_measured():
    spec = importlib.util.spec_from_file_location(
        "e2e_layers", REPO_ROOT / "benchmarks" / "e2e" / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while decorating.
    sys.modules[spec.name] = layers
    try:
        spec.loader.exec_module(layers)
        chip = get_chip("16nm")
        tracer = layers.Tracer()
        installed = layers.install(tracer)
        try:
            chip.thermal.core_steady_state(np.full(chip.thermal.n_cores, 1.0))
        finally:
            # The wrappers patch repro process-wide.
            installed.remove()
    finally:
        del sys.modules[spec.name]

    assert installed.missing == {}
    report = tracer.report(1.0, installed.missing)
    per_layer = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())[
        "per_layer"
    ]
    measured = [m["name"] for m in per_layer if m["name"] in report]
    assert len(measured) >= len(layers.LAYERS)
    assert [n for n in measured if report[n]["value"] is None] == []
