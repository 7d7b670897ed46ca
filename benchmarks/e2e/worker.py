"""One measured process: set-up, then the timed section of one workload.

The harness starts a fresh interpreter per sample::

    python worker.py '{"workload": "dsrem_mixes", "seed": 0, "mode": "timed", "workdir": "..."}'

``mode`` is ``setup`` (imports and cold chip builds only), ``timed`` or
``traced`` (the timed section with the layer tracer installed).  The
worker prints one JSON object on stdout.  Set-up is timed from the first
import of the program, so the interpreter's own start is not part of it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    started = time.perf_counter()
    import workloads  # noqa: E402 - importing the program is what set-up times

    import repro
    from repro.experiments.common import get_chip

    imported = time.perf_counter()
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}")
    spec = workloads.WORKLOADS[request["workload"]]
    for node in spec.nodes:
        get_chip(node).engine
    record = {
        "import_s": imported - started,
        "chips_s": time.perf_counter() - imported,
        "seeded": spec.seeded,
    }
    if request["mode"] != "setup":
        record.update(measure(workloads, spec, request))
    print(json.dumps(record))
    return 0


def measure(workloads, spec, request: dict) -> dict:
    """Run the timed section once, then reduce and check its outputs."""
    import layers
    from repro.thermal.backends import default_backend_name, numba_available

    inputs = spec.inputs(request["seed"])
    workdir = Path(request["workdir"])
    tracer = installed = None
    if request["mode"] == "traced":
        tracer = layers.Tracer()
        installed = layers.install(tracer, namespaces=[workloads])
    start = time.perf_counter()
    try:
        raw = spec.timed(inputs, workdir)
    finally:
        wall_s = time.perf_counter() - start
        if installed is not None:
            installed.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs: dict = {}
    failures: dict = {}
    for op_id, value in raw.items():
        if isinstance(value, workloads.Failure):
            failures[op_id] = value.message
            continue
        try:
            outputs[op_id], problems = spec.describe(inputs, op_id, value)
        except Exception as exc:  # noqa: BLE001 - an unreadable output fails its op
            failures[op_id] = f"output: {type(exc).__name__}: {exc}"
            continue
        if problems:
            failures[op_id] = "; ".join(problems)
    record = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "failures": failures,
        "backend": default_backend_name(),
        "numba": numba_available(),
        "store_bytes": sum(f.stat().st_size for f in workdir.rglob("*") if f.is_file()),
    }
    if tracer is not None:
        record["layers"] = tracer.report(wall_s, installed.missing)
        record["edges"] = [
            {"caller": caller, "layer": layer, "calls": calls, "total_s": total, "self_s": own}
            for (caller, layer), (calls, total, own) in sorted(
                tracer.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
            )
        ]
    return record


if __name__ == "__main__":
    sys.exit(main(sys.argv))
