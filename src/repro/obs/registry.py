"""The process-global observability registry.

One :class:`Registry` per process collects five kinds of measurements:

* **counters** — monotone event counts (``incr``): solver calls, store
  hits, transient steps;
* **timers** — flat duration aggregates (``timer``/``observe``): count
  and total wall-clock per name;
* **spans** — *hierarchical* duration aggregates (``span``): nested
  spans accumulate under their dot-joined path, so a sweep stage running
  inside an experiment lands under ``experiment.fig10.sweep.fig10_nodes``
  while the same stage run standalone lands under ``sweep.fig10_nodes``;
* **gauges** — last-value-wins samples (``gauge``): the process's peak
  RSS — "what was it at the end", not "how much in total";
* **histograms** — value *distributions* (``histogram``): count, sum,
  min, max plus fixed log2 buckets, so per-run signals (transient step
  counts, DTM steps per enforcement, store latencies) keep their shape
  instead of vanishing into a total.

The registry is **disabled by default** and every recording call begins
with one boolean check — the null fast path.  Instrumented hot loops
(the batched engine's cache, the event loop, the transient integrator)
therefore pay a single predictable branch per event when observability
is off; measured overhead on the hot paths is below the noise
floor (see ``docs/observability.md`` and ``tests/test_obs_overhead.py``).

Counters, timers, spans and histogram count/sum/buckets are plain sums,
so two snapshots can be subtracted (:meth:`Registry.diff`) and merged
(:meth:`Registry.merge`) exactly — the mechanism
:class:`repro.perf.sweep.SweepRunner` uses to fold worker-process
measurements back into the parent registry.  Gauges merge last-writer-
wins and histogram min/max merge by min/max (a ``diff`` reports the
min/max of the *current* state, since extremes cannot be subtracted).
"""

from __future__ import annotations

import math
import time
from typing import Optional

#: Snapshot schema version, recorded in every export.  Version 2 added
#: the ``gauges`` and ``histograms`` aggregate kinds (version-1
#: snapshots still diff/merge cleanly — absent kinds read as empty).
SNAPSHOT_VERSION = 2

#: Histogram bucket key for non-positive values.
_HIST_UNDERFLOW = "le0"


def _hist_bucket(value: float) -> str:
    """The fixed log2 bucket key of ``value``.

    Bucket ``"e"`` holds values in ``(2**(e-1), 2**e]``; non-positive
    values land in ``"le0"``.  String keys keep buckets JSON-stable
    across snapshot/diff/merge.
    """
    if value <= 0:
        return _HIST_UNDERFLOW
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    # frexp returns mantissa in [0.5, 1): exactly 0.5 iff the value
    # is a power of two, which belongs in the lower bucket.
    exact_power_of_two = mantissa == 0.5  # repro-lint: disable=DS102 - frexp mantissa is exact
    return str(exponent - 1 if exact_power_of_two else exponent)


def diff_snapshots(now: dict, before: dict) -> dict:
    """The exact delta between two snapshots of the same registry.

    Counters, timers, spans and histogram count/sum/buckets are sums,
    so their deltas are exact and telescope: summing (merging) every
    interval delta between ``snap_0`` and ``snap_n`` reproduces
    ``snap_n - snap_0`` to the bit.  A histogram delta carries the
    *current* min/max (extremes cannot be subtracted).  Gauges are
    included when their value changed or is new.  Entries absent from
    ``before`` are returned whole; unchanged entries are omitted (a
    timer or span counts as changed when its count or total moved, a
    histogram when its count, sum or any bucket moved).

    :meth:`Registry.diff` is this applied to a live snapshot.
    """
    out = {
        "version": SNAPSHOT_VERSION,
        "counters": {},
        "timers": {},
        "spans": {},
        "gauges": {},
        "histograms": {},
    }
    prior_counters = before.get("counters", {})
    for name, value in now["counters"].items():
        delta = value - prior_counters.get(name, 0)
        if delta:
            out["counters"][name] = delta
    for kind in ("timers", "spans"):
        prior = before.get(kind, {})
        for name, agg in now[kind].items():
            prev = prior.get(name, {"count": 0, "total_s": 0.0})
            d_count = agg["count"] - prev["count"]
            d_total = agg["total_s"] - prev["total_s"]
            # A snapshot can catch an interval between its count and its
            # total_s updates, so an interval may move only the latter.
            if d_count or d_total:
                out[kind][name] = {"count": d_count, "total_s": d_total}
    prior_gauges = before.get("gauges", {})
    for name, value in now["gauges"].items():
        if name not in prior_gauges or prior_gauges[name] != value:
            out["gauges"][name] = value
    prior_hists = before.get("histograms", {})
    for name, agg in now["histograms"].items():
        prev = prior_hists.get(name)
        if prev is None:
            out["histograms"][name] = agg
            continue
        d_count = agg["count"] - prev["count"]
        d_sum = agg["sum"] - prev["sum"]
        prev_buckets = prev.get("buckets", {})
        buckets = {
            key: n - prev_buckets.get(key, 0)
            for key, n in agg["buckets"].items()
            if n - prev_buckets.get(key, 0)
        }
        # A snapshot can catch a record between its count and its
        # sum/bucket updates, so an interval may move only the latter.
        if not (d_count or d_sum or buckets):
            continue
        out["histograms"][name] = {
            "count": d_count,
            "sum": d_sum,
            "min": agg["min"],
            "max": agg["max"],
            "buckets": buckets,
        }
    return out


class _NullSpan:
    """Shared no-op context manager returned when the registry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Timer:
    """Context manager recording one duration into a flat timer."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "Registry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._registry.observe(self._name, time.perf_counter() - self._start)
        return False


class _Span:
    """Context manager recording one duration under the span stack."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "Registry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        self._registry._stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._start
        registry = self._registry
        try:
            registry._finish_span(".".join(registry._stack), elapsed)
        finally:
            # Pop unconditionally: whatever the bookkeeping above did,
            # the stack must unwind or every later span in the process
            # records under a corrupt path.
            registry._stack.pop()
        return False


class Registry:
    """Counters, timers, spans, gauges and histograms with exact merge/diff."""

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._counters: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}  # name -> [count, total_s]
        self._spans: dict[str, list[float]] = {}  # path -> [count, total_s]
        self._gauges: dict[str, float] = {}
        # name -> [count, sum, min, max, {bucket: count}]
        self._hists: dict[str, list] = {}
        self._stack: list[str] = []

    # -- state --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether recording calls take effect."""
        return self._enabled

    def enable(self) -> None:
        """Start recording."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording (accumulated data is kept until ``reset``)."""
        self._enabled = False

    def reset(self) -> None:
        """Drop every accumulated measurement (enabled state unchanged)."""
        self._counters.clear()
        self._timers.clear()
        self._spans.clear()
        self._gauges.clear()
        self._hists.clear()
        self._stack.clear()

    # -- recording ----------------------------------------------------

    def incr(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op when disabled)."""
        if not self._enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into flat timer ``name``."""
        if not self._enabled:
            return
        bucket = self._timers.get(name)
        if bucket is None:
            self._timers[name] = [1, seconds]
        else:
            bucket[0] += 1
            bucket[1] += seconds

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last writer wins)."""
        if not self._enabled:
            return
        self._gauges[name] = value

    def histogram(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        if not self._enabled:
            return
        value = float(value)
        hist = self._hists.get(name)
        if hist is None:
            self._hists[name] = [1, value, value, value, {_hist_bucket(value): 1}]
            return
        hist[0] += 1
        hist[1] += value
        if value < hist[2]:
            hist[2] = value
        if value > hist[3]:
            hist[3] = value
        key = _hist_bucket(value)
        hist[4][key] = hist[4].get(key, 0) + 1

    def timer(self, name: str):
        """Context manager timing its body into flat timer ``name``."""
        if not self._enabled:
            return NULL_SPAN
        return _Timer(self, name)

    def span(self, name: str):
        """Context manager timing its body under the hierarchical path.

        Nested spans join with dots: ``span("a")`` containing
        ``span("b")`` records under ``"a"`` and ``"a.b"``.
        """
        if not self._enabled:
            return NULL_SPAN
        return _Span(self, name)

    def _finish_span(self, path: str, elapsed: float) -> None:
        """Record one completed span's aggregate."""
        bucket = self._spans.get(path)
        if bucket is None:
            self._spans[path] = [1, elapsed]
        else:
            bucket[0] += 1
            bucket[1] += elapsed

    # -- aggregation --------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict copy of every aggregate (JSON-serialisable)."""
        return {
            "version": SNAPSHOT_VERSION,
            "counters": dict(self._counters),
            "timers": {
                name: {"count": int(c), "total_s": t}
                for name, (c, t) in self._timers.items()
            },
            "spans": {
                path: {"count": int(c), "total_s": t}
                for path, (c, t) in self._spans.items()
            },
            "gauges": dict(self._gauges),
            "histograms": {
                name: {
                    "count": int(h[0]),
                    "sum": h[1],
                    "min": h[2],
                    "max": h[3],
                    "buckets": dict(h[4]),
                }
                for name, h in self._hists.items()
            },
        }

    def diff(self, before: dict) -> dict:
        """The measurements accumulated *since* ``before`` was taken.

        Counters, timers, spans and histogram count/sum/buckets are
        sums, so their deltas are exact; a histogram delta carries the
        *current* min/max (extremes cannot be subtracted).  Gauges are
        included when their value changed or is new.  Entries absent
        from ``before`` are returned whole; unchanged entries are
        omitted.
        """
        return diff_snapshots(self.snapshot(), before)

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold a snapshot (typically a worker's diff) into this registry.

        Merging is additive (gauges: last writer wins; histogram
        min/max: min/max) and ignores the enabled flag: results gathered
        by worker processes must not be lost just because the parent
        toggled recording meanwhile.  ``None`` merges nothing.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value
        for kind, store in (("timers", self._timers), ("spans", self._spans)):
            for name, agg in snapshot.get(kind, {}).items():
                bucket = store.get(name)
                if bucket is None:
                    store[name] = [agg["count"], agg["total_s"]]
                else:
                    bucket[0] += agg["count"]
                    bucket[1] += agg["total_s"]
        self._gauges.update(snapshot.get("gauges", {}))
        for name, agg in snapshot.get("histograms", {}).items():
            hist = self._hists.get(name)
            if hist is None:
                self._hists[name] = [
                    agg["count"],
                    agg["sum"],
                    agg["min"],
                    agg["max"],
                    dict(agg.get("buckets", {})),
                ]
                continue
            hist[0] += agg["count"]
            hist[1] += agg["sum"]
            hist[2] = min(hist[2], agg["min"])
            hist[3] = max(hist[3], agg["max"])
            for key, n in agg.get("buckets", {}).items():
                hist[4][key] = hist[4].get(key, 0) + n

    def subsystems(self) -> set[str]:
        """First dotted components of every recorded name.

        The acceptance handle for "how many subsystems are instrumented
        in this snapshot": ``{"thermal", "tsp", "sweep", "runtime", ...}``.
        """
        names = (
            list(self._counters)
            + list(self._timers)
            + list(self._spans)
            + list(self._gauges)
            + list(self._hists)
        )
        return {name.split(".", 1)[0] for name in names}
