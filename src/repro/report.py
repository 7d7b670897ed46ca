"""The rendered performance report: ``darksilicon report``.

Turns two raw observability artefacts — an obs snapshot exported by
``--profile-out`` (the file ``obs watch`` reads) and the store's
``runs.jsonl`` provenance ledger — into one markdown dashboard under
``reports/``:

* **Hottest spans** — the snapshot's span aggregates, ranked by total
  time;
* **Histogram percentiles** — p50/p90/p99 for every histogram the
  snapshot recorded, estimated from the log2 buckets
  (:func:`repro.obs.export.hist_percentile`);
* **Store activity** — hit rate and failure count out of the run
  ledger;
* **Recent runs** — the ledger's newest lines: which experiment ran,
  served or executed, how long, under which code fingerprint.

Rendering is deterministic for fixed inputs (``generated=None`` omits
the timestamp line), which is what the golden-file test pins down.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.obs.export import hist_percentile
from repro.obs.manifest import RunManifest, read_manifests

#: Default report location, relative to the working directory.
DEFAULT_REPORT_PATH = Path("reports") / "performance.md"


_NO_SNAPSHOT = "No snapshot given — pass `--snapshot` (a `--profile-out` export)."


def _spans_section(snapshot: Optional[dict], top: int) -> list[str]:
    lines = [f"## Hottest spans (top {top})", ""]
    if snapshot is None:
        return lines + [_NO_SNAPSHOT, ""]
    spans = snapshot.get("spans", {})
    if not spans:
        return lines + ["No span data in the snapshot.", ""]
    ranked = sorted(spans.items(), key=lambda kv: -kv[1]["total_s"])[:top]
    lines.append("| span | count | total_s |")
    lines.append("|---|---|---|")
    for path, agg in ranked:
        lines.append(f"| `{path}` | {agg['count']} | {agg['total_s']:.4f} |")
    lines.append("")
    return lines


def _percentiles_section(snapshot: Optional[dict]) -> list[str]:
    lines = ["## Histogram percentiles", ""]
    if snapshot is None:
        return lines + [_NO_SNAPSHOT, ""]
    hists = snapshot.get("histograms", {})
    if not hists:
        return lines + ["No histogram data in the snapshot.", ""]
    lines.append("| histogram | count | p50 | p90 | p99 |")
    lines.append("|---|---|---|---|---|")
    for name, agg in sorted(hists.items()):
        cells = []
        for q in (0.5, 0.9, 0.99):
            value = hist_percentile(agg, q)
            cells.append("—" if value is None else f"{value:.4g}")
        lines.append(
            f"| `{name}` | {agg.get('count', 0)} "
            f"| {cells[0]} | {cells[1]} | {cells[2]} |"
        )
    lines.append("")
    return lines


def _store_section(manifests: Sequence[RunManifest]) -> list[str]:
    lines = ["## Store activity", ""]
    if not manifests:
        lines += [
            "No run ledger found — run with `--store DIR` to record "
            "provenance.",
            "",
        ]
        return lines
    ok = [m for m in manifests if m.error is None]
    hits = sum(m.cached for m in ok)
    executed = len(ok) - hits
    failed = len(manifests) - len(ok)
    rate = hits / len(ok) if ok else 0.0
    lines += [
        f"- runs recorded: **{len(manifests)}** "
        f"({hits} served from store, {executed} executed, {failed} failed)",
        f"- store hit rate: **{rate:.1%}**",
        "",
    ]
    return lines


def _ledger_section(
    manifests: Sequence[RunManifest], recent: int
) -> list[str]:
    lines = [f"## Recent runs (last {recent})", ""]
    if not manifests:
        lines += ["No runs recorded.", ""]
        return lines
    lines.append("| timestamp | experiment | status | wall_s | fingerprint |")
    lines.append("|---|---|---|---|---|")
    for m in list(manifests)[-recent:]:
        if m.error is not None:
            status = "FAILED"
        elif m.cached:
            status = "cached"
        else:
            status = "executed"
        lines.append(
            f"| {m.timestamp} | {m.experiment} | {status} "
            f"| {m.wall_s:.3f} | `{m.fingerprint}` |"
        )
    lines.append("")
    return lines


def render_report(
    snapshot: Optional[dict],
    manifests: Sequence[RunManifest],
    top: int = 5,
    recent: int = 10,
    generated: Optional[str] = None,
) -> str:
    """The full markdown dashboard as one string.

    Args:
        snapshot: an obs registry snapshot (the ``--profile-out``
            format), or ``None`` when none was given.
        manifests: the run ledger (see
            :func:`repro.obs.manifest.read_manifests`).
        top: hottest spans shown.
        recent: ledger lines shown.
        generated: timestamp line content; ``None`` omits the line,
            keeping the output a pure function of the inputs (what the
            golden-file test relies on).
    """
    lines = ["# Performance report", ""]
    if generated is not None:
        lines += [f"_Generated: {generated}_", ""]
    lines += _spans_section(snapshot, top)
    lines += _percentiles_section(snapshot)
    lines += _store_section(manifests)
    lines += _ledger_section(manifests, recent)
    return "\n".join(lines).rstrip() + "\n"


def generate(
    snapshot_path: Optional[Union[str, Path]] = None,
    store_root: Optional[Union[str, Path]] = None,
    out_path: Union[str, Path] = DEFAULT_REPORT_PATH,
    top: int = 5,
    recent: int = 10,
) -> Path:
    """Load every input, render, and write the report; returns its path.

    Raises:
        OSError, ValueError: when ``snapshot_path`` is given but is
            missing or not JSON.
    """
    snapshot = (
        json.loads(Path(snapshot_path).read_text()) if snapshot_path else None
    )
    manifests = read_manifests(store_root) if store_root else []
    text = render_report(
        snapshot,
        manifests,
        top=top,
        recent=recent,
        generated=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    return out
