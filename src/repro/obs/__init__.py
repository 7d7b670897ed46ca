"""repro.obs — zero-dependency observability for the hot layers.

Every figure of the paper reduces to thousands of steady-state solves,
TSP table lookups and DTM decisions; this package makes that activity
visible without perturbing it.  A single process-global
:class:`~repro.obs.registry.Registry` collects

* counters (``obs.incr("thermal.model.solves")``),
* flat timers (``with obs.timer("runtime.run"): ...``),
* hierarchical spans (``with obs.span("experiment.fig10"): ...``),
* gauges (``obs.gauge("perf.batched.influence_bytes", 1.6e5)``), and
* histograms (``obs.histogram("thermal.transient.steps_per_sim", n)``),

and is **disabled by default**: every recording call short-circuits on
one boolean, so instrumentation stays in place permanently at effectively
zero cost.  Enable it per process (:func:`enable`), per CLI run
(``darksilicon fig10 --profile``) or via the environment
(``REPRO_OBS=1``).

A second switch, :func:`enable_trace` (CLI ``--trace-out``), makes every
span additionally record begin/end *timeline events* with pid/tid and
optional attributes; :mod:`repro.obs.trace` exports them as Chrome
trace-event JSON plus a plain-text flame summary, and
:class:`repro.perf.sweep.SweepRunner` re-bases worker-process events
onto the parent's timeline.  :mod:`repro.obs.manifest` writes one
provenance line per experiment run to ``runs.jsonl`` under the artifact
store root.

A third switch, :func:`enable_attribution`, makes every closing span
additionally record net-allocation and peak-memory histograms under
``<span path>.mem.*`` via :mod:`tracemalloc` (see
:mod:`repro.obs.resources`).  On top of the switches sits the
*continuous* layer: :class:`~repro.obs.sampler.SnapshotSampler`
captures exact interval deltas plus ``process.*`` resource gauges on a
background thread, :mod:`repro.obs.exporters` renders any snapshot as
Prometheus text exposition (servable over HTTP) or streams it as JSONL,
and :mod:`repro.obs.watch` evaluates declarative metric budgets
(``benchmarks/budgets.json``) against snapshots — the gate behind
``darksilicon obs watch`` and ``make obs-smoke``.

Instrumented subsystems and their name prefixes:

============ ====================================================
prefix       source
============ ====================================================
thermal.     model solves, LU factorisations, transient steps
solver.cost. backend work: factorizations, nnz, RHS columns
perf.        batched engine single and batch solves
tsp.         shared TSP table builds vs lookups
estimator.   workload mappings, placed/rejected instances
runtime.     event-loop admissions, deferrals, policy decisions
dtm.         enforcement runs, throttle/gate interventions
sweep.       per-stage grid spans (worker deltas merged exactly)
experiment.  one span per figure/extension run
process.     sampler-published resource gauges (RSS, CPU, GC)
obs.sampler. the sampler's own bookkeeping
============ ====================================================

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
from repro.obs.exporters import (
    JsonlSink,
    read_jsonl,
    start_metrics_server,
    to_prometheus,
)
from repro.obs.registry import (
    METRIC_NAME_RE,
    NULL_SPAN,
    Registry,
    SNAPSHOT_VERSION,
    diff_snapshots,
)
from repro.obs.resources import process_resources
from repro.obs.sampler import SnapshotSampler, safe_snapshot
from repro.obs.trace import flame_summary, to_chrome_trace

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


def validate_names(validate: bool = True) -> None:
    """Reject malformed metric names on the global registry.

    See :meth:`repro.obs.registry.Registry.set_name_validation` — the
    runtime arm of lint rule DS301.
    """
    REGISTRY.set_name_validation(validate)


def incr(name: str, n: float = 1) -> None:
    """Add ``n`` to global counter ``name`` (no-op when disabled)."""
    if REGISTRY._enabled:
        if REGISTRY._validate_names:
            REGISTRY._check_name(name)
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


def span(name: str, attrs=None):
    """Context manager timing its body under the global span stack.

    ``attrs`` (a mapping) is attached to the begin trace event when
    tracing is on.
    """
    return REGISTRY.span(name, attrs)


def trace_enabled() -> bool:
    """Whether the global registry records timeline events."""
    return REGISTRY.trace_enabled


def enable_trace() -> None:
    """Record begin/end timeline events for every global span."""
    REGISTRY.enable_trace()


def disable_trace() -> None:
    """Stop recording timeline events (collected events kept)."""
    REGISTRY.disable_trace()


def attribution_enabled() -> bool:
    """Whether closing global spans record ``.mem.*`` histograms."""
    return REGISTRY.attribution_enabled


def enable_attribution() -> None:
    """Record per-span memory deltas on the global registry.

    Implies :func:`enable`; starts :mod:`tracemalloc` if needed.  See
    :mod:`repro.obs.resources` for the attribution semantics.
    """
    REGISTRY.enable_attribution()


def disable_attribution() -> None:
    """Stop recording per-span memory deltas (data kept)."""
    REGISTRY.disable_attribution()


def trace_mark() -> int:
    """Current global event count (slice handle for trace_state)."""
    return REGISTRY.trace_mark()


def trace_events() -> list[dict]:
    """Copy of every collected global trace event, by timestamp."""
    return REGISTRY.trace_events()


def trace_state(since: int = 0) -> dict:
    """Global events from ``since`` on, with this process's anchor."""
    return REGISTRY.trace_state(since)


def merge_trace(state: dict | None) -> None:
    """Re-base and fold a worker's trace events into the timeline."""
    REGISTRY.merge_trace(state)


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
    "JsonlSink",
    "METRIC_NAME_RE",
    "NULL_SPAN",
    "REGISTRY",
    "Registry",
    "SNAPSHOT_VERSION",
    "SnapshotSampler",
    "annotate_percentiles",
    "attribution_enabled",
    "diff",
    "diff_snapshots",
    "disable",
    "disable_attribution",
    "disable_trace",
    "enable",
    "enable_attribution",
    "enable_trace",
    "enabled",
    "flame_summary",
    "gauge",
    "hist_percentile",
    "histogram",
    "incr",
    "merge",
    "merge_trace",
    "observe",
    "process_resources",
    "read_jsonl",
    "reset",
    "safe_snapshot",
    "snapshot",
    "span",
    "start_metrics_server",
    "subsystems",
    "timer",
    "to_chrome_trace",
    "to_csv",
    "to_json",
    "to_prometheus",
    "trace_enabled",
    "trace_events",
    "trace_mark",
    "trace_state",
    "validate_names",
]
