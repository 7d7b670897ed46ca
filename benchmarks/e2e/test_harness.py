"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import pickle
import sys
import types

import pytest

import compare
import layers
import run

TOY_SOURCE = """
def outer():
    clock.advance(1.0)
    inner()
    clock.advance(2.0)

def inner():
    clock.advance(3.0)

def recurse(n):
    clock.advance(1.0)
    return recurse(n - 1) if n else 0

def ping(n):
    clock.advance(1.0)
    return pong(n) if n else 0

def pong(n):
    clock.advance(1.0)
    return ping(n - 1)
"""


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def toy():
    """A throwaway module whose functions advance a fake clock."""
    clock = FakeClock()
    module = types.ModuleType("toy_layers")
    module.clock = clock
    exec(TOY_SOURCE, module.__dict__)
    sys.modules["toy_layers"] = module
    yield module, layers.Tracer(clock=clock)
    del sys.modules["toy_layers"]


def test_self_time_subtracts_nested_layers(toy):
    module, tracer = toy
    original = module.outer
    installed = layers.install(
        tracer, {"a": ("toy_layers:outer",), "b": ("toy_layers:inner",)}
    )
    module.outer()
    installed.remove()

    assert tracer.layer_totals() == {"a": (1, 3.0), "b": (1, 3.0)}
    assert tracer.edges == {(None, "a"): [1, 6.0, 3.0], ("a", "b"): [1, 3.0, 3.0]}
    report = tracer.report(6.0, installed.missing, layers=("a", "b"))
    assert report["a.self_s"]["value"] == 3.0
    assert report["attributed_frac"]["value"] == 1.0
    assert module.outer is original


def test_same_layer_reentry_counts_once(toy):
    module, tracer = toy
    installed = layers.install(
        tracer, {"a": ("toy_layers:recurse", "toy_layers:ping"), "b": ("toy_layers:pong",)}
    )
    module.recurse(3)
    assert tracer.layer_totals()["a"] == (1, 4.0)

    tracer.edges.clear()
    module.ping(1)  # a -> b -> a: the second entry into a comes from b
    installed.remove()
    assert tracer.layer_totals() == {"a": (2, 2.0), "b": (1, 1.0)}


def test_missing_entry_point_reads_not_measured(toy):
    module, tracer = toy
    installed = layers.install(
        tracer,
        {
            "a": ("toy_layers:outer",),
            "gone": ("toy_layers:inner", "toy_layers:vanished", "no_such_module:f"),
            "gone_class": ("toy_layers:Vanished.method",),
        },
    )
    module.outer()
    installed.remove()
    assert installed.missing == {
        "gone": ["toy_layers:vanished", "no_such_module:f"],
        "gone_class": ["toy_layers:Vanished.method"],
    }
    report = tracer.report(6.0, installed.missing, layers=("a", "gone", "gone_class"))
    for name in ("gone.calls", "gone.self_s", "gone_class.calls"):
        assert report[name]["value"] is None
        assert "missing: " in report[name]["not_measured"]
    assert "toy_layers:vanished" in report["gone.calls"]["not_measured"]
    assert report["a.calls"]["value"] == 1


def test_every_program_entry_point_resolves():
    pytest.importorskip("repro")
    for layer, specs in layers.LAYERS.items():
        for spec in specs:
            assert layers.resolve(spec), f"{layer}: {spec} resolves to nothing"


def test_seeded_inputs_are_deterministic_and_differ_across_seeds():
    workloads = pytest.importorskip("workloads")
    for spec in workloads.WORKLOADS.values():
        first = pickle.dumps(spec.inputs(0))
        assert pickle.dumps(spec.inputs(0)) == first, spec.name
        assert (pickle.dumps(spec.inputs(1)) != first) == spec.seeded, spec.name


def _sample(outputs, failures=None):
    return {"mode": "timed", "outputs": outputs, "failures": failures or {}}


def test_reference_mismatch_and_exception_count_as_failed_ops():
    reference = {"map": {"peak": 79.5, "cores": [1, 2]}, "name": "x264", "sim": [1.0]}
    close = _sample({"map": {"peak": 79.5 * (1 + 1e-7), "cores": [1, 2]}, "name": "x264", "sim": [1.0]})
    assert run.check([close], reference) == (3, [])

    drifted = _sample({"map": {"peak": 79.6, "cores": [1, 2]}, "name": "x264", "sim": [1.0]})
    moved = _sample({"map": {"peak": 79.5, "cores": [1, 3]}, "name": "x264", "sim": [1.0]})
    raised = _sample({"map": {"peak": 79.5, "cores": [1, 2]}, "name": "x264"}, {"sim": "ValueError: no"})
    for sample, op in ((drifted, "map"), (moved, "map"), (raised, "sim")):
        attempted, failures = run.check([sample], reference)
        assert attempted == 3 and len(failures) == 1 and op in failures[0]

    # Without a reference the samples of one run must still agree.
    attempted, failures = run.check([close, drifted], None)
    assert attempted == 6 and len(failures) == 1


def test_compare_verdicts():
    assert compare.verdict([10.0, 10.1, 9.9], [10.05, 10.0, 10.1], 0.1, "lower") == "same"
    assert compare.verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], 0.1, "lower") == "worse"
    assert compare.verdict([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], 0.1, "lower") == "better"
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert compare.verdict(noisy, [9.5, 10.5, 11.5, 8.5, 12.5], 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, [1.0, 2.0, 3.0, 1.5, 2.5], 0.1, "lower") == "better"


def test_benchmark_json_is_well_formed():
    workloads = pytest.importorskip("workloads")
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in benchmark["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))


def test_results_contain_every_benchmark_metric():
    pytest.importorskip("repro")
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results = [
        run.run_workload("steady_online", 0, 0, trace=False, min_samples=1),
        run.run_workload("steady_online", 0, 0, trace=True, min_samples=2),
    ]
    assert all(r["failed"] == 0 and not r["problems"] for r in results)
    line = run.result_line(results, benchmark)
    expected = {f"steady_online.{m['name']}" for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    assert set(line["metrics"]) == expected
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert line["correct"] and line["attempted"] == 3 * 12
