"""Snapshot export: JSON documents, flat CSV tables, percentiles.

A snapshot (see :meth:`repro.obs.registry.Registry.snapshot`) is already
a JSON-serialisable dict; :func:`to_json` adds deterministic formatting
and optional file output, :func:`to_csv` flattens the five aggregate
kinds into one ``kind,name,count,total_s,value`` table so spreadsheet
tooling can consume a run without JSON wrangling.  (Histogram rows put
the sample *sum* in the ``total_s`` column — for duration histograms it
is seconds, for count histograms it is the summed counts; the bucket
breakdown only exists in the JSON form.)

:func:`hist_percentile` estimates quantiles from the registry's log2
histogram buckets, and :func:`annotate_percentiles` stamps p50/p90/p99
onto every histogram of a snapshot — used by ``darksilicon report``
tables and the budget watchdog's ``p95_le`` predicate.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.obs.registry import _HIST_UNDERFLOW


def to_json(snapshot: dict, path: Optional[Union[str, Path]] = None) -> str:
    """Serialise a snapshot to JSON (sorted keys, 2-space indent).

    Args:
        snapshot: a registry snapshot.
        path: when given, the JSON is also written to this file.

    Returns:
        The JSON text.
    """
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def to_csv(snapshot: dict, path: Optional[Union[str, Path]] = None) -> str:
    """Flatten a snapshot into CSV rows.

    Counters and gauges emit ``(kind, value)`` rows; timers and spans
    emit ``(count, total_s)`` rows; histograms emit ``(count, sum)``
    rows (sum in the ``total_s`` column).  Rows are sorted by
    (kind, name) so the output is diff-stable across runs.

    Returns:
        The CSV text (also written to ``path`` when given).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["kind", "name", "count", "total_s", "value"])
    rows = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append(["counter", name, "", "", value])
    for name, value in snapshot.get("gauges", {}).items():
        rows.append(["gauge", name, "", "", value])
    for kind in ("timers", "spans"):
        for name, agg in snapshot.get(kind, {}).items():
            rows.append([kind[:-1], name, agg["count"], agg["total_s"], ""])
    for name, agg in snapshot.get("histograms", {}).items():
        rows.append(["histogram", name, agg["count"], agg["sum"], ""])
    rows.sort(key=lambda r: (r[0], r[1]))
    writer.writerows(rows)
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def hist_percentile(agg: dict, q: float) -> Optional[float]:
    """Estimate the ``q``-quantile of a log2-bucket histogram aggregate.

    The estimator assumes a uniform distribution *within* the bucket
    containing the target rank, interpolating linearly between the
    bucket's bounds — with both bounds clamped to the aggregate's
    recorded ``min``/``max``.  The clamp makes degenerate cases exact
    rather than approximate: a histogram whose samples all share one
    bucket interpolates across ``[min, max]`` directly, and a
    constant-valued histogram returns that constant for every ``q``
    (the exactness contract ``tests/test_obs_watch.py`` pins).

    Args:
        agg: histogram aggregate (``count``/``sum``/``min``/``max``/
            ``buckets``) as found in a snapshot.
        q: quantile in ``[0, 1]``.

    Returns:
        The estimate, or ``None`` for an empty histogram.

    Raises:
        ConfigurationError: when ``q`` is outside ``[0, 1]``, empty
            histogram or not.
    """
    if not 0.0 <= q <= 1.0:
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"quantile must be in [0, 1], got {q!r}")
    count = agg.get("count", 0)
    if not count:
        return None
    lo_all, hi_all = agg["min"], agg["max"]

    def bounds(key: str) -> tuple[float, float]:
        if key == _HIST_UNDERFLOW:
            return (min(lo_all, 0.0), 0.0)
        exponent = int(key)
        return (2.0 ** (exponent - 1), 2.0 ** exponent)

    ordered = sorted(
        ((bounds(key), n) for key, n in agg.get("buckets", {}).items()),
        key=lambda item: item[0][1],
    )
    rank = q * count  # continuous rank in [0, count]
    cumulative = 0
    for (lo, hi), n in ordered:
        if rank <= cumulative + n or (lo, hi) == ordered[-1][0]:
            lo = max(lo, lo_all)
            hi = min(hi, hi_all)
            frac = (rank - cumulative) / n
            frac = min(max(frac, 0.0), 1.0)
            value = lo + (hi - lo) * frac
            return min(max(value, lo_all), hi_all)
        cumulative += n
    raise AssertionError("unreachable: ranks are covered by buckets")


def annotate_percentiles(
    snapshot: dict, qs: Sequence[float] = (0.5, 0.9, 0.99)
) -> dict:
    """Stamp quantile estimates onto every histogram of a snapshot.

    Returns a copy of ``snapshot`` whose histogram aggregates carry an
    extra ``"p<NN>"`` key per requested quantile (``0.5`` → ``"p50"``,
    ``0.99`` → ``"p99"``); the input is not mutated.  Non-histogram
    kinds are passed through unchanged.
    """
    out = dict(snapshot)
    out["histograms"] = {
        name: {
            **agg,
            **{
                f"p{round(q * 100):d}": hist_percentile(agg, q)
                for q in qs
            },
        }
        for name, agg in snapshot.get("histograms", {}).items()
    }
    return out
