"""repro.lint — project-specific static analysis for the reproduction.

Generic linters cannot check the conventions this library's correctness
rests on: SI units internally with named multipliers (:mod:`repro.units`),
the :class:`repro.errors.ReproError` hierarchy, dotted observability
metric namespaces registered in ``docs/metrics.txt``, and spawn-safe
sweep workers.  The engine (:mod:`repro.lint.engine`) parses each file
once and dispatches its nodes to the per-file rules, plugins with
``DSxxx`` codes (:mod:`repro.lint.rules`); after that pass, DS302
checks the manifest against the metric names harvested from every
file:

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
DS702    every ``open()`` / ``.open()`` handle is closed, handed off,
         or ``with``-managed
=======  ==========================================================

A finding is silenced by an inline comment on the offending line
(``# repro-lint: disable=DS102 - exact sentinel``), which documents
intent at the site.  The engine is exposed as ``darksilicon lint`` (see
``docs/linting.md``) and wired into ``make lint`` / ``make test``.
"""

from __future__ import annotations

from repro.lint.engine import (
    Finding,
    LintReport,
    MetricManifest,
    Rule,
    all_codes,
    all_rules,
    lint_paths,
    lint_source,
    prune_manifest,
    rule,
)

# Importing the rule module registers the built-in DS rules.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "LintReport",
    "MetricManifest",
    "Rule",
    "all_codes",
    "all_rules",
    "lint_paths",
    "lint_source",
    "prune_manifest",
    "rule",
]
