"""Compare two benchmark results files, one row per (workload, end-to-end metric).

    python3 benchmarks/e2e/compare.py parent.json change.json

Reads files written by ``run.py --out``.  Each row gives both medians,
both quartiles, the ratio change/parent and a verdict against the
metric's bound in ``BENCHMARK.json``:

* when the spread (quartile distance over median, the wider of the two
  sides) exceeds the bound, the verdict is ``better`` if every change
  sample beats every parent sample and ``unresolved`` otherwise;
* else ``worse`` when the change's median is worse than the parent's by
  more than the bound, ``better`` when it is better by more than the
  bound, and ``same`` in between.

Deterministic counts of the traced runs (``*.calls``, RHS columns) are
listed where they differ.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]


def quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def spread(samples: list[float]) -> float:
    """Quartile distance over the median."""
    q1, q3 = quartiles(samples)
    return (q3 - q1) / statistics.median(samples)


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = sign * (c_med - p_med) / p_med
    if max(spread(parent), spread(change)) > bound:
        beats = all(sign * (c - p) < 0 for c in change for p in parent)
        return "better" if beats else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def pooled(results: list[dict], trace: bool) -> dict[str, dict[str, dict]]:
    """workload -> metric -> {"samples", "unit"}, pooling runs of one workload."""
    out: dict[str, dict[str, dict]] = {}
    for r in results:
        if r["trace"] != trace:
            continue
        for name, m in r["metrics"].items():
            if m["value"] is None:
                continue
            entry = out.setdefault(r["workload"], {}).setdefault(
                name, {"samples": [], "unit": m["unit"]}
            )
            entry["samples"] += m.get("samples", [m["value"]])
    return out


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text())["results"] for p in argv)
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    p_e2e, c_e2e = pooled(parent, False), pooled(change, False)
    print(
        f"{'workload':17s} {'metric':12s} {'parent':>10s} {'[q1, q3]':>21s}"
        f" {'change':>10s} {'[q1, q3]':>21s} {'ratio':>7s}  verdict (bound)"
    )
    any_worse = False
    for workload in sorted(set(p_e2e) & set(c_e2e)):
        for name, spec in bounds.items():
            if name not in p_e2e[workload] or name not in c_e2e[workload]:
                continue
            ps, cs = p_e2e[workload][name]["samples"], c_e2e[workload][name]["samples"]
            v = verdict(ps, cs, spec["bound"], spec["better"])
            any_worse |= v == "worse"
            pq, cq = quartiles(ps), quartiles(cs)
            p_med, c_med = statistics.median(ps), statistics.median(cs)
            print(
                f"{workload:17s} {name:12s} {p_med:10.4g} [{pq[0]:9.4g}, {pq[1]:9.4g}]"
                f" {c_med:10.4g} [{cq[0]:9.4g}, {cq[1]:9.4g}] {c_med / p_med:7.3f}"
                f"  {v} ({spec['bound']:.0%})"
            )
    p_layer, c_layer = pooled(parent, True), pooled(change, True)
    for workload in sorted(set(p_layer) & set(c_layer)):
        for name, m in sorted(p_layer[workload].items()):
            other = c_layer[workload].get(name)
            if m["unit"] != "count" or other is None:
                continue
            if set(m["samples"]) != set(other["samples"]):
                print(f"{workload}: {name} {sorted(set(m['samples']))} -> {sorted(set(other['samples']))}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
