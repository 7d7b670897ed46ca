"""repro.obs — zero-dependency observability for the hot layers.

Every figure of the paper reduces to thousands of steady-state solves,
TSP table lookups and DTM decisions; this package makes that activity
visible without perturbing it.  A single process-global
:class:`~repro.obs.registry.Registry` collects

* counters (``obs.incr("thermal.model.solves")``),
* flat timers (``with obs.timer(name): ...``),
* hierarchical spans (``with obs.span("experiment.fig10"): ...``),
* gauges (``obs.gauge("process.max_rss_bytes", rss)``), and
* histograms (``obs.histogram("thermal.transient.steps_per_sim", n)``),

and is **disabled by default**: every recording call short-circuits on
one boolean, so instrumentation stays in place permanently at effectively
zero cost.  Enable it per process (:func:`enable`), per CLI run
(``darksilicon fig10 --profile``) or via the environment
(``REPRO_OBS=1``).

The registry has no background thread and no exporter of its own: a
profiled run (``--profile``/``--profile-out``) writes one snapshot,
:mod:`repro.obs.export` renders it as JSON or CSV,
:mod:`repro.obs.watch` evaluates declarative metric budgets
(``benchmarks/budgets.json``) against it — the gate behind
``darksilicon obs watch`` and ``make obs-smoke`` — and
:mod:`repro.obs.manifest` writes one provenance line per experiment run
to ``runs.jsonl`` under the artifact store root.

Instrumented subsystems and their name prefixes:

============ ====================================================
prefix       source
============ ====================================================
thermal.     model solves, leakage iterations, transient steps
solver.cost. backend work: factorizations, RHS columns
tsp.         TSP table builds, per-core budget distribution
runtime.     the online event loop's span
dtm.         steps per enforcement run
store.       artifact-store hits/misses/writes and lookup latency
sweep.       per-stage grid spans (worker deltas merged exactly)
experiment.  one span per figure/extension run
process.     peak RSS, published when a snapshot is exported
============ ====================================================

Every name has a reader: a budget, the report, or a test
(``tests/test_metrics_manifest.py`` checks this for ``docs/metrics.txt``).

Module-level helpers delegate to the global registry; ``snapshot()``
returns a plain JSON-serialisable dict, ``to_json``/``to_csv`` export
it, and ``merge``/``diff`` fold worker-process measurements back in (see
``docs/observability.md`` for the schema and overhead numbers).
"""

from __future__ import annotations

import os

from repro.obs.export import (
    annotate_percentiles,
    hist_percentile,
    to_csv,
    to_json,
)
from repro.obs.registry import (
    NULL_SPAN,
    Registry,
    SNAPSHOT_VERSION,
    diff_snapshots,
)

#: Environment variable that enables the registry at import time.
ENV_ENABLE = "REPRO_OBS"

#: The process-global registry every instrumented layer reports to.
REGISTRY = Registry(
    enabled=os.environ.get(ENV_ENABLE, "").lower() not in ("", "0", "false")
)


def enabled() -> bool:
    """Whether the global registry is recording."""
    return REGISTRY.enabled


def enable() -> None:
    """Turn global recording on."""
    REGISTRY.enable()


def disable() -> None:
    """Turn global recording off (data kept until :func:`reset`)."""
    REGISTRY.disable()


def reset() -> None:
    """Drop everything the global registry has accumulated."""
    REGISTRY.reset()


def incr(name: str, n: float = 1) -> None:
    """Add ``n`` to global counter ``name`` (no-op when disabled)."""
    if REGISTRY._enabled:
        counters = REGISTRY._counters
        counters[name] = counters.get(name, 0) + n


def observe(name: str, seconds: float) -> None:
    """Record one duration into global flat timer ``name``."""
    REGISTRY.observe(name, seconds)


def gauge(name: str, value: float) -> None:
    """Set global gauge ``name`` to ``value`` (last writer wins)."""
    REGISTRY.gauge(name, value)


def histogram(name: str, value: float) -> None:
    """Record one sample into global histogram ``name``."""
    REGISTRY.histogram(name, value)


def timer(name: str):
    """Context manager timing its body into global timer ``name``."""
    return REGISTRY.timer(name)


def span(name: str):
    """Context manager timing its body under the global span stack."""
    return REGISTRY.span(name)


def snapshot() -> dict:
    """Plain-dict copy of the global registry's aggregates."""
    return REGISTRY.snapshot()


def diff(before: dict) -> dict:
    """Global measurements accumulated since ``before`` was taken."""
    return REGISTRY.diff(before)


def merge(delta: dict | None) -> None:
    """Fold a snapshot/diff (e.g. from a worker) into the registry."""
    REGISTRY.merge(delta)


def subsystems() -> set[str]:
    """Distinct instrumented-subsystem prefixes recorded so far."""
    return REGISTRY.subsystems()


__all__ = [
    "ENV_ENABLE",
    "NULL_SPAN",
    "REGISTRY",
    "Registry",
    "SNAPSHOT_VERSION",
    "annotate_percentiles",
    "diff",
    "diff_snapshots",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "hist_percentile",
    "histogram",
    "incr",
    "merge",
    "observe",
    "reset",
    "snapshot",
    "span",
    "subsystems",
    "timer",
    "to_csv",
    "to_json",
]
