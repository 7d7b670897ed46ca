"""End-to-end benchmark: seeded workloads in fresh processes, every metric by name.

One run of one workload::

    python3 benchmarks/e2e/run.py --workload dsrem_mixes --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` alternates untraced and traced samples and reports the per-layer
metrics.  Without ``--workload`` every workload runs, and without
``--trace`` both kinds of run happen, so the bare command is the whole
benchmark.  Each sample is a fresh interpreter (see ``worker.py``) with
BLAS pinned to one thread; samples repeat until ``--seconds`` have
passed and at least three (two when tracing) were taken.

Every op's output is checked: against invariants that hold for any
seed, against the first sample of the run (the outputs must not change
between samples), and against ``reference/`` where the seed has one.
The last line of stdout is one JSON object::

    {"correct": true, "attempted": 56, "failed": 0, "metrics": {"wall_s": {"value": 5.2, "unit": "s"}, ...}}

``--out FILE`` also writes everything measured (quartiles, samples,
per-edge layer times, the environment); ``compare.py`` reads two such
files.  ``--write-reference`` stores the current outputs as the
reference for the given workloads and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".e2e-work"

#: Relative tolerance of a float output against the reference.
RTOL = 1e-6
#: Absolute floor of that tolerance, for outputs that are exactly 0.0.
ATOL = 1e-12
#: Set-up samples per run; runs with fewer timed samples add set-up-only ones.
MIN_SETUPS = 5
#: A worker that takes longer than this is a failed run, s.
WORKER_TIMEOUT_S = 170
#: Every sample runs single-threaded BLAS, without the program's behaviour switches.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DROPPED_ENV = ("REPRO_OBS", "REPRO_THERMAL_BACKEND")


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to an op that failed)."""


# -- samples ------------------------------------------------------------


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def spawn(workload: str, seed: int, mode: str) -> dict:
    """One fresh worker process; returns its JSON record."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir()
    request = {"workload": workload, "seed": seed, "mode": mode, "workdir": str(workdir)}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(request)],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} {mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while not empty
            WORK_DIR.rmdir()
    if proc.returncode != 0:
        raise HarnessError(
            f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["mode"] = mode
    return record


def collect(workload: str, seed: int, seconds: float, trace: bool, min_samples: int) -> list[dict]:
    """Samples of one workload until ``seconds`` passed and ``min_samples`` were taken.

    With ``trace`` the samples alternate untraced and traced.  Runs that
    took fewer than :data:`MIN_SETUPS` samples add set-up-only ones, so
    ``setup_s`` is always a median of several fresh processes.
    """
    spawn(workload, seed, "setup")  # warm-up: byte-compiles, fills the page cache
    modes = itertools.cycle(("timed", "traced")) if trace else itertools.repeat("timed")
    samples = []
    started = time.perf_counter()
    while len(samples) < min_samples or time.perf_counter() - started < seconds:
        samples.append(spawn(workload, seed, next(modes)))
    while len(samples) < MIN_SETUPS:
        samples.append(spawn(workload, seed, "setup"))
    return samples


# -- checking outputs ---------------------------------------------------


def mismatch(expected: Any, actual: Any, path: str = "") -> Optional[str]:
    """Where ``actual`` differs from ``expected``, or None.

    Floats agree within :data:`RTOL`; integers (placements, counts),
    strings and structure must match exactly.
    """
    if isinstance(expected, bool) or isinstance(actual, bool):
        same = expected is actual
    elif isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) or not isinstance(actual, (int, float)):
            same = False
        elif math.isnan(expected) or math.isnan(actual):
            same = math.isnan(expected) and math.isnan(actual)
        else:
            same = math.isclose(expected, actual, rel_tol=RTOL, abs_tol=ATOL)
    elif isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return f"{path or '/'}: keys {sorted(expected)} != {sorted(actual)}"
        for key in expected:
            found = mismatch(expected[key], actual[key], f"{path}/{key}")
            if found:
                return found
        return None
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path or '/'}: length {len(expected)} != {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{path}/{i}")
            if found:
                return found
        return None
    else:
        same = type(expected) is type(actual) and expected == actual
    return None if same else f"{path or '/'}: expected {expected!r}, got {actual!r}"


def reference_path(workload: str, seed: int, seeded: bool) -> Path:
    """One file per seed; one for a workload that ignores the seed."""
    name = f"{workload}-seed{seed}" if seeded else workload
    return REFERENCE_DIR / f"{name}.json"


def load_reference(workload: str, seed: int, seeded: bool) -> Optional[dict]:
    path = reference_path(workload, seed, seeded)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["outputs"]


def check(samples: list[dict], reference: Optional[dict]) -> tuple[int, list[str]]:
    """``(ops attempted, failure messages)`` over every timed or traced sample.

    An op fails when it raised or broke an invariant, when its output
    differs from the reference, or when it differs from the run's first
    sample.  Every op the reference names must be present.
    """
    measured = [s for s in samples if "outputs" in s]
    first = measured[0]["outputs"]
    op_ids = sorted(set(reference or {}) | set(first) | set(measured[0]["failures"]))
    attempted, failures = 0, []
    for i, sample in enumerate(measured):
        for op in op_ids:
            attempted += 1
            output = sample["outputs"].get(op)
            if op in sample["failures"]:
                found = sample["failures"][op]
            elif output is None:
                found = "no output"
            elif reference is not None and op not in reference:
                found = "not in the reference"
            else:
                found = mismatch(reference[op], output) if reference is not None else None
                if found is None and op in first:
                    found = mismatch(first[op], output)
            if found:
                failures.append(f"sample {i} {op}: {found}")
    return attempted, failures


# -- metrics --------------------------------------------------------------


def stats(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def end_to_end_metrics(samples: list[dict]) -> dict:
    timed = [s for s in samples if s["mode"] == "timed"]
    return {
        "wall_s": {**stats([s["wall_s"] for s in timed]), "unit": "s"},
        "setup_s": {**stats([s["import_s"] + s["chips_s"] for s in samples]), "unit": "s"},
        "peak_rss_mb": {**stats([s["peak_rss_mb"] for s in timed]), "unit": "MiB"},
    }


def per_layer_metrics(samples: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the traced samples' layer metrics, plus set-up and overhead.

    Returns the metrics and a problem list: deterministic counts (calls,
    RHS columns) must repeat exactly across the traced samples.
    """
    traced = [s for s in samples if s["mode"] == "traced"]
    untraced = [s for s in samples if s["mode"] == "timed"]
    problems = []
    metrics: dict = {}
    for name, first in traced[0]["layers"].items():
        values = [s["layers"][name]["value"] for s in traced]
        if first["value"] is None:
            metrics[name] = dict(first)
        elif first["unit"] == "count":
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced samples: {values}")
            metrics[name] = {**stats(values), "value": statistics.median_low(values), "unit": "count"}
        else:
            metrics[name] = {**stats(values), "unit": first["unit"]}
    overhead = statistics.median(s["wall_s"] for s in traced) / statistics.median(
        s["wall_s"] for s in untraced
    ) - 1.0
    metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    metrics["store.bytes_written"] = {**stats([s["store_bytes"] for s in traced]), "unit": "B"}
    metrics["setup.import_s"] = {**stats([s["import_s"] for s in samples]), "unit": "s"}
    metrics["setup.chips_s"] = {**stats([s["chips_s"] for s in samples]), "unit": "s"}
    return metrics, problems


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, min_samples: Optional[int] = None
) -> dict:
    """One run: samples, checks and metrics of one workload at one seed."""
    samples = collect(workload, seed, seconds, trace, min_samples or (2 if trace else 3))
    reference = load_reference(workload, seed, samples[0]["seeded"])
    attempted, failures = check(samples, reference)
    problems: list[str] = []
    if trace:
        metrics, problems = per_layer_metrics(samples)
    else:
        metrics = end_to_end_metrics(samples)
    measured = next(s for s in samples if "outputs" in s)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "checked": reference is not None,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "problems": problems,
        "metrics": metrics,
        "edges": next((s["edges"] for s in samples if s["mode"] == "traced"), None),
        "environment": environment(measured),
    }


def environment(sample: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "thermal_backend": sample["backend"],
        "numba": sample["numba"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "env": PINNED_ENV,
    }


# -- reporting ------------------------------------------------------------


def print_table(result: dict) -> None:
    mode = "traced" if result["trace"] else "timed"
    checked = "checked against reference" if result["checked"] else "no reference for this seed"
    print(
        f"== {result['workload']} seed {result['seed']} ({mode}): "
        f"{result['failed']}/{result['attempted']} ops failed, {checked}"
    )
    for message in result["failures"] + result["problems"]:
        print(f"   FAIL {message}")
    for name, m in result["metrics"].items():
        if m["value"] is None:
            print(f"   {name:34s} not measured ({m['not_measured']})")
        elif "q1" in m:
            print(
                f"   {name:34s} {m['value']:>14.6g} {m['unit']:<9s}"
                f" q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']}"
            )
        else:
            print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}")


def result_line(results: list[dict], benchmark: dict) -> dict:
    """The last stdout line: the metrics ``BENCHMARK.json`` names, by kind."""
    metrics = {}
    for r in results:
        wanted = benchmark["per_layer"] if r["trace"] else benchmark["end_to_end"]
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for spec in wanted:
            m = r["metrics"].get(spec["name"])
            if m is None:
                raise HarnessError(f"{r['workload']} did not produce {spec['name']}")
            entry = {"value": m["value"], "unit": spec["unit"]}
            if m["value"] is None:
                entry["not_measured"] = m["not_measured"]
            metrics[prefix + spec["name"]] = entry
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0 and not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def write_reference(workload: str, seed: int) -> Path:
    """Store one sample's outputs as the reference; refuses failed ops."""
    sample = spawn(workload, seed, "timed")
    if sample["failures"]:
        raise HarnessError(f"{workload} seed {seed}: ops failed: {sample['failures']}")
    path = reference_path(workload, seed, sample["seeded"])
    path.parent.mkdir(exist_ok=True)
    lines = [
        f"{json.dumps(op)}: {json.dumps(out, sort_keys=True)}"
        for op, out in sorted(sample["outputs"].items())
    ]
    header = json.dumps({"workload": workload, "seed": seed if sample["seeded"] else None})
    path.write_text(header[:-1] + ', "outputs": {\n' + ",\n".join(lines) + "\n}}\n")
    return path


def parse_args(argv: Optional[list[str]], benchmark: dict) -> argparse.Namespace:
    run_seconds = benchmark["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help=f"measuring time per run (default {run_seconds}, from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--out", type=Path, help="write the full results as JSON")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the outputs as the reference for this seed")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, benchmark)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    try:
        if args.write_reference:
            for workload in workloads:
                print(write_reference(workload, args.seed))
            return 0
        traces = [bool(args.trace)] if args.trace is not None else [False, True]
        results = []
        for workload in workloads:
            for trace in traces:
                results.append(run_workload(workload, args.seed, args.seconds, trace))
                print_table(results[-1])
        line = result_line(results, benchmark)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps({"benchmark": "e2e", "results": results}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
