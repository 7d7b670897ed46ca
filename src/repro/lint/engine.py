"""The rule engine: one AST pass per file, rules as plugins.

A :class:`Rule` subclass declares the node types it wants
(:attr:`Rule.visits`); :func:`lint_source` parses the file once, walks
the tree once, and dispatches each node to every subscribed rule.  Rules
yield :class:`Finding` objects; the engine then drops findings silenced
by an inline ``# repro-lint: disable=DSxxx`` comment on the same line,
and — at the :func:`lint_paths` level — findings ratified in the
baseline file (see :mod:`repro.lint.baseline`).

Scoping: conventions like "no magic unit literals" only bind *library*
code, not tests or fixtures, so every rule sees a :class:`FileContext`
that knows whether the file lives under ``src/repro`` and its path
relative to the package root (``ctx.library_rel``), letting rules skip
``units.py`` (the one place unit literals are defined) or the
:mod:`repro.obs` implementation (the one place metric names are plumbed
rather than emitted).
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import ConfigurationError

#: Inline suppression comment grammar.  ``disable`` with no codes
#: silences every rule on the line; a comma-separated code list
#: silences only those.  Anything after the codes (``- reason``) is the
#: site's documentation of intent.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+?))?(?:\s+-.*)?$"
)

#: Marker meaning "every code" in a suppression set.
SUPPRESS_ALL = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def fingerprint(self) -> str:
        """Line-independent identity used for baseline matching.

        Line numbers drift with every unrelated edit, so the baseline
        matches on path + code + message instead.
        """
        return f"{self.path}:{self.code}:{self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class MetricManifest:
    """The checked-in metric-name registry (``docs/metrics.txt``).

    One name per line; ``#`` starts a comment; a trailing ``*`` makes
    the entry a prefix wildcard (``experiment.*`` covers every
    hierarchical span path rooted at ``experiment.``).

    Loaded manifests also remember each entry's line number and whether
    its trailing comment starts with ``keep`` — the inputs to the
    *stale-entry* check (DS302), which flags entries no longer matched
    by any statically harvested metric name.  ``# keep - reason``
    ratifies an entry the harvester cannot see (names emitted by
    external tooling, reserved namespaces).
    """

    def __init__(
        self,
        names: Iterable[str | tuple[str, Optional[int], bool]],
        *,
        path: Optional[str | Path] = None,
    ) -> None:
        self.names: set[str] = set()
        self.prefixes: list[str] = []
        #: (entry text, 1-based line or None, keep flag) per entry.
        self.entries: list[tuple[str, Optional[int], bool]] = []
        self.path = Path(path).as_posix() if path is not None else None
        for item in names:
            if isinstance(item, tuple):
                entry, lineno, keep = item
            else:
                entry, lineno, keep = item, None, False
            self.entries.append((entry, lineno, keep))
            if entry.endswith("*"):
                self.prefixes.append(entry[:-1])
            else:
                self.names.add(entry)

    @classmethod
    def load(cls, path: str | Path) -> "MetricManifest":
        entries = []
        for lineno, raw in enumerate(
            Path(path).read_text().splitlines(), start=1
        ):
            text, _, comment = raw.partition("#")
            line = text.strip()
            if line:
                keep = comment.split()[:1] == ["keep"]
                entries.append((line, lineno, keep))
        return cls(entries, path=path)

    def digest(self) -> str:
        """Content hash of the entries (part of the summary-cache key:
        DS301 findings cached per file depend on the manifest)."""
        blob = "\n".join(
            f"{entry}\t{keep}" for entry, _, keep in self.entries
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def stale_entries(
        self, names: set[str], prefixes: set[str]
    ) -> list[tuple[str, Optional[int]]]:
        """Entries matched by no harvested metric name (DS302 inputs).

        ``names``/``prefixes`` are the statically discovered literal
        names and f-string prefixes.  A concrete entry is live when a
        harvested name or prefix covers it; a wildcard ``p.*`` is live
        when a harvested name falls under it *or* equals ``p`` itself
        (span paths nest under their span's own name), or a harvested
        prefix overlaps it in either direction.  ``# keep`` entries are
        never stale.
        """
        out: list[tuple[str, Optional[int]]] = []
        for entry, lineno, keep in self.entries:
            if keep:
                continue
            if entry.endswith("*"):
                stem = entry[:-1]
                live = any(
                    n.startswith(stem)
                    or stem == n
                    or stem.startswith(n + ".")
                    for n in names
                ) or any(
                    d.startswith(stem) or stem.startswith(d)
                    for d in prefixes
                )
            else:
                live = entry in names or any(
                    entry.startswith(d) for d in prefixes
                )
            if not live:
                out.append((entry, lineno))
        return out

    def covers(self, name: str) -> bool:
        """Whether a concrete metric name is registered."""
        if name in self.names:
            return True
        return any(name.startswith(p) for p in self.prefixes)

    def covers_prefix(self, prefix: str) -> bool:
        """Whether any registered name could start with ``prefix``.

        The static check for f-string names (``f"store.{name}"``): true
        when a concrete entry starts with the prefix, or a wildcard
        overlaps it in either direction.
        """
        if any(name.startswith(prefix) for name in self.names):
            return True
        return any(
            p.startswith(prefix) or prefix.startswith(p) for p in self.prefixes
        )


@dataclass
class FileContext:
    """Everything a rule may need about the file being linted."""

    path: str
    tree: ast.AST
    source: str
    in_library: bool
    #: Path relative to the ``repro`` package root when ``in_library``
    #: (``"power/model.py"``), else ``None``.
    library_rel: Optional[str]
    manifest: Optional[MetricManifest] = None
    #: Scratch space for per-file rule state (keyed by rule code).
    state: dict = field(default_factory=dict)


class Rule:
    """Base class for one DS rule.

    Subclasses set :attr:`code` and :attr:`visits`, and implement
    :meth:`visit`; the class docstring says what the rule flags.  One
    instance is created per file, so per-file state can live on ``self``.
    """

    code: str = ""
    #: AST node classes this rule wants dispatched to :meth:`visit`.
    visits: tuple = ()

    def applies(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (default: library)."""
        return ctx.in_library

    def begin_file(self, ctx: FileContext) -> None:
        """Per-file setup (e.g. a name-collection prepass)."""

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        return iter(())


#: The plugin registry, in registration order.
_RULES: list[type[Rule]] = []


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering a rule plugin."""
    if not cls.code:
        raise ConfigurationError(f"rule {cls.__name__} has no code")
    if any(existing.code == cls.code for existing in _RULES):
        raise ConfigurationError(f"duplicate rule code {cls.code}")
    _RULES.append(cls)
    return cls


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, in registration order."""
    return list(_RULES)


def _suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> codes silenced by an inline comment there."""
    silenced: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            codes = match.group("codes")
            if codes is None:
                silenced.setdefault(tok.start[0], set()).add(SUPPRESS_ALL)
            else:
                silenced.setdefault(tok.start[0], set()).update(
                    c.strip() for c in codes.split(",") if c.strip()
                )
    except tokenize.TokenError:  # pragma: no cover - truncated source
        pass
    return silenced


def _library_rel(path: Path) -> Optional[str]:
    """Path relative to the ``repro`` package when under ``src/repro``."""
    parts = path.parts
    for i in range(len(parts) - 1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return "/".join(parts[i + 2 :])
    return None


def lint_source(
    source: str,
    path: str | Path,
    *,
    manifest: Optional[MetricManifest] = None,
    library: Optional[bool] = None,
    select: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Lint one file's text through every registered rule.

    Args:
        source: the file's contents.
        path: its (reported) path; also drives library scoping.
        manifest: the metric manifest for DS301 (``None``: DS301 checks
            grammar only).
        library: force library scoping on/off (``None``: infer from the
            path containing ``src/repro``).
        select: restrict to these rule codes (``None``: all).

    Returns:
        Findings not silenced by inline suppressions, in source order.
    """
    _, _, kept = _lint_file(source, Path(path), manifest, library, select)
    return kept


def _lint_file(
    source: str,
    path: Path,
    manifest: Optional[MetricManifest],
    library: Optional[bool],
    select: Optional[Sequence[str]],
) -> tuple[FileContext, dict[int, set[str]], list[Finding]]:
    """Parse one file and run the per-file rules over it.

    Returns its context, its inline suppressions and the findings they
    do not silence, in source order.
    """
    rel = _library_rel(path)
    in_library = rel is not None if library is None else library
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    ctx = FileContext(
        path=path.as_posix(),
        tree=tree,
        source=source,
        in_library=in_library,
        library_rel=rel if rel is not None else (path.name if in_library else None),
        manifest=manifest,
    )
    findings = _run_rules(ctx, select)
    silenced = _suppressions(source)
    kept = _apply_suppressions(findings, silenced)
    kept.sort(key=lambda f: (f.line, f.col, f.code))
    return ctx, silenced, kept


def _run_rules(
    ctx: FileContext, select: Optional[Sequence[str]] = None
) -> list[Finding]:
    """Dispatch one parsed file through every registered per-file rule."""
    dispatch: dict[type, list[Rule]] = {}
    for cls in _RULES:
        if select is not None and cls.code not in select:
            continue
        instance = cls()
        if not instance.applies(ctx):
            continue
        instance.begin_file(ctx)
        for node_type in instance.visits:
            dispatch.setdefault(node_type, []).append(instance)
    findings: list[Finding] = []
    if dispatch:
        for node in ast.walk(ctx.tree):
            for instance in dispatch.get(type(node), ()):
                findings.extend(instance.visit(node, ctx))
    return findings


def _apply_suppressions(
    findings: Iterable[Finding], silenced: dict[int, set[str]]
) -> list[Finding]:
    return [
        f
        for f in findings
        if not (
            f.line in silenced
            and (SUPPRESS_ALL in silenced[f.line] or f.code in silenced[f.line])
        )
    ]


def _phase1_file(
    path_str: str,
    source: str,
    manifest: Optional[MetricManifest],
    select: Optional[Sequence[str]],
) -> tuple[list[Finding], "ModuleSummary"]:
    """Phase 1 for one file: per-file findings plus its module summary."""
    ctx, silenced, kept = _lint_file(source, Path(path_str), manifest, None, select)
    summary = summarize_source(
        source,
        ctx.path,
        ctx.tree,
        library_rel=ctx.library_rel,
        in_library=ctx.in_library,
        suppressions=silenced,
    )
    return kept, summary


#: Directories containing this marker file are excluded from directory
#: walks — used by the lint fixture corpus (``tests/data/lint``), whose
#: files violate rules on purpose.
IGNORE_MARKER = ".repro-lint-ignore"


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files accepted verbatim).

    Skips ``__pycache__`` and any directory holding an
    :data:`IGNORE_MARKER` file.
    """
    out: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            ignored = {marker.parent for marker in p.rglob(IGNORE_MARKER)}
            out.extend(
                f
                for f in sorted(p.rglob("*.py"))
                if "__pycache__" not in f.parts
                and not ignored.intersection(f.parents)
            )
        elif p.suffix == ".py":
            out.append(p)
        else:
            raise ConfigurationError(f"not a python file or directory: {p}")
    return out


@dataclass
class LintReport:
    """The outcome of one :func:`lint_paths` run."""

    findings: list[Finding]
    files: int
    baseline_suppressed: int = 0
    #: Two-phase instrumentation: ``phase1_s``/``phase2_s`` wall clock,
    #: ``cache_hits``/``cache_misses`` when a summary cache was used.
    timings: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        """The ``--format json`` document (schema version 1)."""
        return {
            "version": 1,
            "files": self.files,
            "counts": self.counts(),
            "baseline_suppressed": self.baseline_suppressed,
            "timings": self.timings,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        counts = ", ".join(f"{c}: {n}" for c, n in self.counts().items())
        verdict = (
            f"{len(self.findings)} finding(s) ({counts})"
            if self.findings
            else "clean"
        )
        suffix = (
            f", {self.baseline_suppressed} baselined"
            if self.baseline_suppressed
            else ""
        )
        lines.append(f"[lint] {self.files} file(s): {verdict}{suffix}")
        if self.timings:
            bits = [
                f"phase1 {self.timings.get('phase1_s', 0.0):.3f}s",
                f"phase2 {self.timings.get('phase2_s', 0.0):.3f}s",
            ]
            if "cache_hits" in self.timings:
                bits.append(
                    f"cache {self.timings['cache_hits']} hit(s) / "
                    f"{self.timings['cache_misses']} miss(es)"
                )
            lines.append(f"[lint] {', '.join(bits)}")
        return "\n".join(lines)


#: Library-file count below which the stale-manifest check (DS302)
#: stays off in auto mode: linting a subset of the tree would make
#: every entry for the *unlinted* part look stale.
STALE_CHECK_MIN_LIBRARY_FILES = 50


def lint_paths(
    paths: Sequence[str | Path],
    *,
    manifest: Optional[MetricManifest] = None,
    baseline: Optional["Baseline"] = None,
    select: Optional[Sequence[str]] = None,
    cache_dir: Optional[str | Path] = None,
    program: bool = True,
    stale_manifest: Optional[bool] = None,
) -> LintReport:
    """Lint every python file under ``paths`` — the two-phase pass.

    Phase 1 runs the per-file rules and builds module summaries,
    content-addressed through the summary cache when ``cache_dir`` is
    given (unchanged files are served findings + summary without
    re-parsing).  Phase 2 links the summaries into a
    :class:`~repro.lint.callgraph.Program` and runs the
    interprocedural DS602/DS702 rules plus the DS302
    stale-manifest check (auto-enabled on whole-tree runs with a
    file-loaded manifest; force with ``stale_manifest=True/False``).

    Baseline-ratified findings are dropped (counted in
    :attr:`LintReport.baseline_suppressed`); inline suppressions are
    handled per file in both phases.
    """
    from repro.lint.dataflow import analyze_program

    files = iter_python_files(paths)
    manifest_digest = manifest.digest() if manifest is not None else ""
    cache = None
    if cache_dir is not None and select is None:
        cache = SummaryCache(cache_dir)

    t0 = time.perf_counter()
    findings: list[Finding] = []
    summaries: list[ModuleSummary] = []
    for f in files:
        source = f.read_text()
        if cache is not None:
            digest = content_hash(source)
            payload = cache.get(f.as_posix(), digest, manifest_digest)
            if payload is not None:
                findings.extend(
                    Finding(**d) for d in payload["findings"]
                )
                summaries.append(
                    ModuleSummary.from_payload(payload["summary"])
                )
                continue
        file_findings, summary = _phase1_file(
            f.as_posix(), source, manifest, select
        )
        findings.extend(file_findings)
        summaries.append(summary)
        if cache is not None:
            cache.put(
                f.as_posix(), digest, manifest_digest, summary, file_findings
            )
    phase1_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    if program:
        library_files = sum(1 for s in summaries if s.in_library)
        if stale_manifest is None:
            check_stale = (
                manifest is not None
                and manifest.path is not None
                and library_files >= STALE_CHECK_MIN_LIBRARY_FILES
            )
        else:
            check_stale = stale_manifest
        findings.extend(
            analyze_program(
                summaries,
                manifest=manifest,
                stale_manifest=check_stale,
                select=select,
            )
        )
    phase2_s = time.perf_counter() - t1

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    suppressed = 0
    if baseline is not None:
        findings, suppressed = baseline.filter(findings)
    timings: dict = {
        "phase1_s": phase1_s,
        "phase2_s": phase2_s,
    }
    if cache is not None:
        timings["cache_hits"] = cache.hits
        timings["cache_misses"] = cache.misses

    return LintReport(
        findings=findings,
        files=len(files),
        baseline_suppressed=suppressed,
        timings=timings,
    )


def prune_manifest(
    manifest_path: str | Path, stale: Sequence[tuple[str, Optional[int]]]
) -> int:
    """Rewrite the manifest dropping the given stale entries.

    ``stale`` is :meth:`MetricManifest.stale_entries` output; lines are
    removed by line number (entry text double-checked).  Returns the
    number of lines removed — the ``lint --prune-manifest`` fixer.
    """
    path = Path(manifest_path)
    lines = path.read_text().splitlines()
    drop: set[int] = set()
    for entry, lineno in stale:
        if lineno is None or lineno > len(lines):
            continue
        if lines[lineno - 1].partition("#")[0].strip() == entry:
            drop.add(lineno - 1)
    if not drop:
        return 0
    kept = [line for i, line in enumerate(lines) if i not in drop]
    path.write_text("\n".join(kept) + "\n")
    return len(drop)


from repro.lint.baseline import Baseline  # noqa: E402  (cycle-free tail import)
from repro.lint.summaries import (  # noqa: E402  (cycle-free tail import)
    ModuleSummary,
    SummaryCache,
    content_hash,
    summarize_source,
)
