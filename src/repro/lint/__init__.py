"""repro.lint — project-specific static analysis for the reproduction.

Generic linters cannot check the conventions this library's correctness
rests on: SI units internally with named multipliers (:mod:`repro.units`),
the :class:`repro.errors.ReproError` hierarchy, dotted observability
metric namespaces registered in ``docs/metrics.txt``, and spawn-safe
sweep workers.  The engine runs in two phases: phase 1 is a per-file
AST pass (rules as plugins with ``DSxxx`` codes) that also distils each
module into a content-addressed summary (:mod:`repro.lint.summaries`,
cached via :mod:`repro.store` for warm runs); phase 2 links the
summaries into a project call graph (:mod:`repro.lint.callgraph`) and
runs the whole-program rules (:mod:`repro.lint.dataflow`):

=======  ==========================================================
code     invariant
=======  ==========================================================
DS101    no raw magic-unit multipliers (``1e-3``, ``1e9``, ...) in
         library code — use ``units.MILLI`` / ``units.GIGA`` / ...
DS102    no ``==`` / ``!=`` against float literals on physical
         quantities without a named sentinel (:func:`repro.units.is_gated`)
         or an annotated suppression
DS201    no bare ``ValueError`` / ``RuntimeError`` / ``KeyError`` raises
         in library code — raise a :class:`repro.errors.ReproError`
         subclass
DS301    obs metric names must be dotted-lowercase literals (or
         f-strings with a literal dotted prefix) registered in the
         checked-in metric manifest ``docs/metrics.txt``
DS302    the converse: no stale manifest entries — every name or
         wildcard in ``docs/metrics.txt`` must still match an emitted
         metric (or carry a ``# keep`` ratification)
DS401    no lambdas / closures / global-mutating workers handed to
         process pools (``SweepRunner.map``, ``ProcessPoolExecutor``)
DS402    no wall-clock / unseeded randomness (``time.time()``,
         ``random.*``) in model or experiment code outside
         :mod:`repro.obs` — it breaks manifest fingerprint
         reproducibility
DS602    no pool-dispatched worker that transitively mutates
         module-level state (lost under the spawn start method)
DS702    every ``open()`` / ``.open()`` handle is closed, handed off,
         or ``with``-managed
=======  ==========================================================

Findings can be silenced two ways: an inline comment on the offending
line (``# repro-lint: disable=DS102 - exact sentinel``) documents intent
at the site, and a ratified baseline file (``lint_baseline.json``)
grandfathers pre-existing findings so the gate only fires on *new*
violations.  The engine is exposed as ``darksilicon lint`` (see
``docs/linting.md``) and wired into ``make lint`` / ``make test``.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline, write_baseline
from repro.lint.engine import (
    Finding,
    LintReport,
    MetricManifest,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    prune_manifest,
    rule,
)
from repro.lint.callgraph import Program
from repro.lint.dataflow import (
    ProgramRule,
    all_program_rules,
    analyze_program,
    analyze_source,
    program_rule,
)
from repro.lint.summaries import ModuleSummary, SummaryCache, summarize_source

# Importing the rule module registers the built-in per-file DS rules
# (the program rules register when repro.lint.dataflow imports above).
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "MetricManifest",
    "ModuleSummary",
    "Program",
    "ProgramRule",
    "Rule",
    "SummaryCache",
    "all_program_rules",
    "all_rules",
    "analyze_program",
    "analyze_source",
    "lint_paths",
    "lint_source",
    "program_rule",
    "prune_manifest",
    "rule",
    "summarize_source",
    "write_baseline",
]
