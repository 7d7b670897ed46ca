"""Phase 2b of the whole-program lint: the program rules.

Three rules run over the linked :class:`~repro.lint.callgraph.Program`
rather than over one file's AST:

* **DS602 spawn discipline** — walks the call graph from every
  pool-dispatched worker and flags workers that transitively mutate
  module-level state — mutations that silently vanish under the spawn
  start method.
* **DS302 stale manifest** — the converse of DS301: no metric manifest
  entry that no call site emits.
* **DS702 file handles** — a per-function escape analysis: a handle
  from ``open()``/``.open()`` must be closed in the same function,
  handed off (returned, stored, passed on), or managed by ``with`` —
  unless the function *is* the lifecycle API (``start*``/``enable*``/
  ``open*``/``acquire*``/``serve*``).

Program rules subclass :class:`ProgramRule` and register with
:func:`program_rule`; :func:`analyze_program` runs them and applies the
per-file inline suppressions recorded in the summaries, so
``# repro-lint: disable=DS602 - reason`` works identically to phase 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import ConfigurationError
from repro.lint.callgraph import Program
from repro.lint.engine import Finding, SUPPRESS_ALL
from repro.lint.summaries import MUTATORS, ModuleSummary

#: Function-name prefixes exempt from DS702: these *are* the lifecycle
#: API, and handing back an open handle is their job.
LIFECYCLE_PREFIXES = ("start", "enable", "open", "acquire", "serve")


class ProgramRule:
    """Base class for one whole-program DS rule."""

    code: str = ""

    def check(self, program: Program) -> Iterator[Finding]:
        """Yield findings over the linked program."""
        return iter(())


_PROGRAM_RULES: list[type[ProgramRule]] = []


def program_rule(cls: type[ProgramRule]) -> type[ProgramRule]:
    """Class decorator registering a program rule."""
    if not cls.code:
        raise ConfigurationError(f"program rule {cls.__name__} has no code")
    if any(existing.code == cls.code for existing in _PROGRAM_RULES):
        raise ConfigurationError(f"duplicate program rule code {cls.code}")
    _PROGRAM_RULES.append(cls)
    return cls


def all_program_rules() -> list[type[ProgramRule]]:
    """Every registered program rule class, in registration order."""
    return list(_PROGRAM_RULES)


def _local_name(program: Program, qual: str) -> str:
    summary = program.owner[qual]
    return qual[len(summary.module) + 1 :]


def _module_mutations(
    program: Program, qual: str
) -> list[str]:
    """Module-state mutations performed directly by one function."""
    facts = program.functions[qual]
    summary = program.owner[qual]
    out = [f"global {name}" for name in facts["global_writes"]]
    for call in facts["calls"]:
        callee = call["callee"]
        if "." not in callee:
            continue
        head, _, _ = callee.partition(".")
        terminal = callee.rsplit(".", 1)[-1]
        if head in summary.module_globals and terminal in MUTATORS:
            out.append(callee)
    return out


@program_rule
class SpawnWorkerMutation(ProgramRule):
    """DS602: pool worker transitively mutates module-level state."""

    code = "DS602"

    def check(self, program: Program) -> Iterator[Finding]:
        for summary in program.summaries:
            for dispatch in summary.spawn_dispatches:
                worker = program.resolve_function(summary, dispatch["worker"])
                if worker is None:
                    continue
                mutations: list[str] = []
                for reached in sorted(program.reachable([worker])):
                    for what in _module_mutations(program, reached):
                        mutations.append(
                            f"{what} in {_local_name(program, reached)}()"
                        )
                if not mutations:
                    continue
                shown = "; ".join(sorted(set(mutations))[:3])
                yield Finding(
                    code=self.code,
                    path=summary.path,
                    line=dispatch["ln"],
                    col=dispatch["col"],
                    message=(
                        f"spawn worker '{dispatch['worker']}' mutates "
                        f"module state invisible to the parent process: "
                        f"{shown}"
                    ),
                )


@program_rule
class StaleManifestEntry(ProgramRule):
    """DS302: manifest entry matches no emitted metric.

    The converse of DS301: every name/wildcard in ``docs/metrics.txt``
    must still be reachable from some statically harvested obs call
    site, or be ratified with a ``# keep`` comment.  Only runs on
    whole-tree walks (see ``stale_manifest`` in
    :func:`repro.lint.engine.lint_paths`); ``lint --prune-manifest``
    rewrites the file dropping the flagged lines.
    """

    code = "DS302"

    def check(self, program: Program) -> Iterator[Finding]:
        manifest = program.manifest
        if manifest is None or not program.stale_manifest:
            return
        names: set[str] = set()
        prefixes: set[str] = set()
        for summary in program.summaries:
            names.update(summary.metric_names)
            prefixes.update(summary.metric_prefixes)
        for entry, lineno in manifest.stale_entries(names, prefixes):
            yield Finding(
                code=self.code,
                path=manifest.path or "<manifest>",
                line=lineno or 0,
                col=0,
                message=(
                    f"manifest entry '{entry}' matches no emitted metric "
                    "name; prune it (lint --prune-manifest) or ratify "
                    "with a '# keep' comment"
                ),
            )


def _lifecycle_exempt(qual_local: str) -> bool:
    terminal = qual_local.rsplit(".", 1)[-1].lstrip("_")
    return terminal.startswith(LIFECYCLE_PREFIXES)


@program_rule
class UnclosedResource(ProgramRule):
    """DS702: opened file handle neither closed nor handed off."""

    code = "DS702"

    def check(self, program: Program) -> Iterator[Finding]:
        for qual, facts in program.functions.items():
            summary = program.owner[qual]
            local = _local_name(program, qual)
            if _lifecycle_exempt(local):
                continue
            handles = facts["handles"]
            released = {
                *handles["closes"], *handles["escapes"], *handles["with"]
            }
            for opened in handles["opens"]:
                var = opened["var"]
                if var in released:
                    continue
                yield Finding(
                    code=self.code,
                    path=summary.path,
                    line=opened["ln"],
                    col=opened["col"],
                    message=(
                        f"open(...) opened as '{var}' in "
                        f"{local}() but never closed, handed off, or "
                        f"managed by 'with'"
                    ),
                )


def analyze_program(
    summaries: Iterable[ModuleSummary],
    *,
    manifest=None,
    stale_manifest: bool = False,
    select: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Run every program rule over linked summaries.

    Inline suppressions recorded in the summaries are applied here, so
    cached (warm) summaries silence findings exactly like fresh ones.
    """
    summaries = list(summaries)
    program = Program(
        summaries, manifest=manifest, stale_manifest=stale_manifest
    )
    selected = set(select) if select is not None else None
    findings: list[Finding] = []
    for cls in _PROGRAM_RULES:
        if selected is not None and cls.code not in selected:
            continue
        findings.extend(cls().check(program))
    silenced = {
        s.path: s.suppressions for s in summaries if s.suppressions
    }
    kept = []
    for f in findings:
        codes = silenced.get(f.path, {}).get(f.line)
        if codes and (SUPPRESS_ALL in codes or f.code in codes):
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept


def analyze_source(
    source: str,
    path: str,
    *,
    library: bool = True,
    select: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Run the program rules over one file's text (fixture harness).

    Summarizes the source as a standalone one-module program — enough
    for every program rule except DS302, which needs a whole-tree walk.
    """
    import ast

    from pathlib import Path

    from repro.lint.engine import _suppressions
    from repro.lint.summaries import summarize_source

    tree = ast.parse(source, filename=path)
    summary = summarize_source(
        source,
        Path(path).as_posix(),
        tree,
        library_rel=None,
        in_library=library,
        suppressions=_suppressions(source),
    )
    return analyze_program([summary], select=select)
