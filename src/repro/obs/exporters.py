"""Live exporters: Prometheus text exposition, JSONL streams, HTTP.

The post-hoc exporters (:mod:`repro.obs.export`) write a finished run's
snapshot to JSON/CSV files.  This module is the *live* counterpart the
continuous-telemetry layer plugs into:

* :func:`to_prometheus` renders any registry snapshot in the Prometheus
  text exposition format (version 0.0.4) — counters and gauges value-
  exact, timers/spans as summaries, and the registry's log2 histograms
  mapped onto cumulative ``le`` buckets;
* :class:`JsonlSink` appends one JSON line per record to a file, fsync-
  free but line-atomic, the sink a :class:`~repro.obs.sampler.
  SnapshotSampler` streams interval samples into and ``darksilicon obs
  tail`` pretty-prints from;
* :func:`start_metrics_server` hosts ``GET /metrics`` (Prometheus) and
  ``GET /snapshot.json`` on a stdlib :class:`http.server.
  ThreadingHTTPServer` daemon thread, so a long-lived process (a sweep,
  the future ``darksilicon serve``) can be scraped while it works.

Name mapping: Prometheus names allow ``[a-zA-Z0-9_:]`` only, so dotted
registry names are flattened with underscores under one namespace —
``perf.batched.single_solves`` becomes ``repro_perf_batched_single_solves``
(counters additionally get the conventional ``_total`` suffix).  The
mapping loses the dot/dash structure but never aliases two registry
names onto each other in practice; the round-trip test pins value
exactness.

Histogram mapping: registry bucket ``"e"`` holds samples in
``(2**(e-1), 2**e]`` and ``"le0"`` holds non-positive samples, so the
upper bounds ``2**e`` (and ``0`` for the underflow bucket) are *exact*
Prometheus ``le`` bounds: cumulative counts are monotone and the
``+Inf`` bucket equals the sample count by construction.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Iterator, Union

from repro.obs.registry import _HIST_UNDERFLOW

#: Default metric-name namespace prefixed to every exported series.
NAMESPACE = "repro"

_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, namespace: str = NAMESPACE) -> str:
    """Flatten a dotted registry name into a Prometheus metric name."""
    flat = _SANITIZE_RE.sub("_", name)
    return f"{namespace}_{flat}" if namespace else flat


def _fmt(value: float) -> str:
    """Format a sample value: integers without a trailing ``.0``."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def bucket_upper_bound(key: str) -> float:
    """The inclusive upper bound of one registry log2 bucket key."""
    if key == _HIST_UNDERFLOW:
        return 0.0
    return float(2.0 ** int(key))


def _histogram_lines(name: str, agg: dict, out: list[str]) -> None:
    """Append one histogram's exposition lines (cumulative buckets)."""
    bounds = sorted(
        (bucket_upper_bound(key), count)
        for key, count in agg.get("buckets", {}).items()
    )
    cumulative = 0
    for bound, count in bounds:
        cumulative += count
        out.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
    out.append(f'{name}_bucket{{le="+Inf"}} {agg["count"]}')
    out.append(f"{name}_sum {_fmt(agg['sum'])}")
    out.append(f"{name}_count {agg['count']}")


def to_prometheus(snapshot: dict, namespace: str = NAMESPACE) -> str:
    """Render a registry snapshot as Prometheus text exposition.

    Counters map to ``<ns>_<name>_total`` counters, gauges map
    value-exact to gauges, timers and spans map to summaries
    (``_count`` / ``_sum`` in seconds), histograms map to cumulative
    ``le`` buckets (see the module docstring for bound semantics).
    Series are emitted in sorted-name order, so the output is
    deterministic for a fixed snapshot.
    """
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = sanitize_metric_name(name, namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for kind in ("timers", "spans"):
        suffix = "_seconds" if kind == "timers" else "_span_seconds"
        for name, agg in sorted(snapshot.get(kind, {}).items()):
            metric = sanitize_metric_name(name, namespace) + suffix
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count {agg['count']}")
            lines.append(f"{metric}_sum {_fmt(agg['total_s'])}")
    for name, agg in sorted(snapshot.get("histograms", {}).items()):
        metric = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {metric} histogram")
        _histogram_lines(metric, agg, lines)
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus(text: str) -> dict[str, dict[str, float]]:
    """Parse a text exposition back into ``{metric: {labels: value}}``.

    A deliberately small parser for round-trip tests and the smoke
    target — it understands exactly what :func:`to_prometheus` emits
    (no escapes, one ``le`` label at most).  The inner key is the raw
    label block (``""`` for unlabelled series).
    """
    series: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            metric, _, labels = name_part.partition("{")
            labels = "{" + labels
        else:
            metric, labels = name_part, ""
        series.setdefault(metric, {})[labels] = float(value_part)
    return series


# -- JSONL streaming ---------------------------------------------------


class JsonlSink:
    """Append-only JSON-lines sink for telemetry records.

    Each :meth:`write` serialises one record compactly onto its own
    line and flushes, so a concurrently tailing reader (``darksilicon
    obs tail --follow``) sees whole lines only.  Usable as a context
    manager; writes after :meth:`close` raise.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self._path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._written = 0

    @property
    def path(self) -> Path:
        """Where the lines land."""
        return self._path

    @property
    def written(self) -> int:
        """Records written through this sink instance."""
        return self._written

    def write(self, record: dict) -> None:
        """Append one record as a single JSON line (thread-safe)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            self._written += 1

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_jsonl(path: Union[str, Path]) -> Iterator[dict]:
    """Yield records from a JSONL file, skipping unparseable lines.

    Mirrors the run-ledger reader's tolerance: one torn line (a crash
    mid-write, a concurrent append) must not take the stream down.
    """
    path = Path(path)
    if not path.is_file():
        return
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


# -- HTTP hosting ------------------------------------------------------


class _MetricsHandler(BaseHTTPRequestHandler):
    """Serves ``/metrics`` (Prometheus) and ``/snapshot.json``."""

    # Set per-server via the factory in start_metrics_server.
    snapshot_fn: Callable[[], dict]
    namespace: str = NAMESPACE

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = to_prometheus(self.snapshot_fn(), self.namespace).encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/snapshot.json":
            body = json.dumps(
                self.snapshot_fn(), indent=2, sort_keys=True
            ).encode()
            content_type = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics)")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Scrape logging is noise; the registry counts requests."""


def start_metrics_server(
    snapshot_fn: Callable[[], dict],
    host: str = "127.0.0.1",
    port: int = 0,
    namespace: str = NAMESPACE,
) -> ThreadingHTTPServer:
    """Host ``snapshot_fn``'s output over HTTP on a daemon thread.

    Args:
        snapshot_fn: zero-argument callable returning the snapshot to
            serve (called per request — serve live state by passing
            ``registry.snapshot`` or a sampler's safe-snapshot hook).
        host: bind address (loopback by default).
        port: bind port; 0 picks a free one — read it back from
            ``server.server_address[1]``.
        namespace: Prometheus metric-name namespace.

    Returns:
        The running server; call ``server.shutdown()`` then
        ``server.server_close()`` to stop it.
    """
    handler = type(
        "_BoundMetricsHandler",
        (_MetricsHandler,),
        {"snapshot_fn": staticmethod(snapshot_fn), "namespace": namespace},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="repro-obs-metrics", daemon=True
    )
    thread.start()
    return server
