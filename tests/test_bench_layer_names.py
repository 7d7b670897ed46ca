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
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.experiments.common import get_chip

REPO_ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def _e2e_module(name: str):
    """``benchmarks/e2e/<name>.py``, loaded as a module for the block."""
    spec = importlib.util.spec_from_file_location(
        f"e2e_{name}", REPO_ROOT / "benchmarks" / "e2e" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while decorating.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _per_layer_names() -> list[str]:
    return [
        m["name"]
        for m in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    ]


def test_traced_names_resolve_and_every_layer_metric_is_measured():
    with _e2e_module("layers") as layers:
        chip = get_chip("16nm")
        tracer = layers.Tracer()
        installed = layers.install(tracer)
        try:
            chip.thermal.core_steady_state(np.full(chip.thermal.n_cores, 1.0))
        finally:
            # The wrappers patch repro process-wide.
            installed.remove()

    assert installed.missing == {}
    report = tracer.report(1.0, installed.missing)
    measured = [n for n in _per_layer_names() if n in report]
    assert len(measured) >= len(layers.LAYERS)
    assert [n for n in measured if report[n]["value"] is None] == []


def test_traced_dsrem_mixes_measures_every_per_layer_metric(tmp_path):
    # The benchmark's traced run reads a null per-layer value as a
    # result it cannot use.  This workload's only backend solves are
    # DsRem's reported peaks (one per run; its threshold checks read the
    # batched engine), so a peak that skips the backend nulls
    # thermal.solve.cols_per_call.
    with _e2e_module("layers") as layers, _e2e_module("workloads") as workloads:
        mixes = workloads.dsrem_inputs(0)
        # Warm the chip's engine outside the traced section, as the
        # harness's worker does in its set-up.
        get_chip("16nm").engine
        tracer = layers.Tracer()
        installed = layers.install(tracer, namespaces=[workloads])
        start = time.perf_counter()
        try:
            raw = workloads.dsrem_timed(mixes, tmp_path)
        finally:
            wall_s = time.perf_counter() - start
            installed.remove()
        failed = [op for op, value in raw.items() if isinstance(value, workloads.Failure)]

    assert failed == []
    report = tracer.report(wall_s, installed.missing)
    measured = [n for n in _per_layer_names() if n in report]
    assert "thermal.solve.cols_per_call" in measured
    assert [n for n in measured if report[n]["value"] is None] == []
