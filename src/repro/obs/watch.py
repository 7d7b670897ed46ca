"""Declarative budget watchdog over registry snapshots.

A **budget** is one declarative expectation about a metric — "at
least one right-hand side was solved", "p95 of the TSP budget
histogram stays below this bound" — loaded from JSON
(``benchmarks/budgets.json`` ships the project's own), evaluated
against *any* snapshot: a finished run's export, a live registry, or
one worker's delta.  Evaluation produces
:class:`Verdict` rows; ``darksilicon obs watch`` prints them and fails
on hard violations (``make obs-smoke`` runs it on a real snapshot).

Budget schema (one JSON object per budget, under a top-level
``"budgets"`` list)::

    {"metric": "solver.cost.rhs_columns",  # exact name or fnmatch
                                           # pattern ("solver.cost.*")
     "min": 1,                  # exactly one predicate per budget:
                                #   max      value <= threshold
                                #   min      value >= threshold
                                #   p95_le   histogram p95 <= threshold
                                #   ratio_ge value / sum(over) >= threshold
     "over": [...],             # ratio_ge only: denominator metric names
     "severity": "hard",        # "hard" (default) gates; "soft" reports
     "required": false,         # true: an absent metric is a violation
     "note": "why this bound"}  # optional, echoed in reports

Metric values resolve by kind: counters and gauges read their value,
spans read ``total_s``, histograms read what the predicate
needs (``max``/``min`` read the recorded extremes, ``p95_le`` the
interpolated :func:`~repro.obs.export.hist_percentile`).  A pattern
budget evaluates once per matching metric; a budget matching nothing
is ``not measured`` (it passes, but never reads ``ok``) unless
``required``, when it is a violation — so one budgets file can serve
experiments that exercise different subsystems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.obs.export import hist_percentile

#: Recognised predicate keys, in evaluation-priority order.
PREDICATES = ("max", "min", "p95_le", "ratio_ge")

_SEVERITIES = ("hard", "soft")

_ALLOWED_KEYS = frozenset(
    ("metric", "over", "severity", "required", "note", *PREDICATES)
)


@dataclass(frozen=True)
class Budget:
    """One declarative metric expectation."""

    metric: str
    predicate: str
    threshold: float
    over: tuple[str, ...] = ()
    severity: str = "hard"
    required: bool = False
    note: str = ""

    @property
    def is_hard(self) -> bool:
        """Whether a violation should gate (exit non-zero)."""
        return self.severity == "hard"

    def describe(self) -> str:
        """Human-readable one-liner of the expectation."""
        if self.predicate == "ratio_ge":
            denom = " + ".join(self.over)
            return f"{self.metric} / ({denom}) >= {self.threshold:g}"
        op = {"max": "<=", "min": ">=", "p95_le": "p95 <="}[self.predicate]
        return f"{self.metric} {op} {self.threshold:g}"


@dataclass(frozen=True)
class Verdict:
    """One budget evaluated against one (matched) metric."""

    budget: Budget
    metric: str
    ok: bool
    value: Optional[float] = None
    detail: str = ""

    @property
    def gating(self) -> bool:
        """Whether this verdict alone should fail a gate."""
        return not self.ok and self.budget.is_hard

    @property
    def not_measured(self) -> bool:
        """Whether it passed with no value: nothing was checked."""
        return self.ok and self.value is None

    def describe(self) -> str:
        """Human-readable one-liner of the outcome."""
        if self.not_measured:
            status = "not measured"
        elif self.ok:
            status = "ok"
        else:
            status = f"VIOLATED ({self.budget.severity})"
        value = "absent" if self.value is None else f"{self.value:g}"
        text = f"{status}: {self.budget.describe()} [value {value}"
        if self.metric != self.budget.metric:
            text += f", metric {self.metric}"
        if self.detail:
            text += f", {self.detail}"
        return text + "]"


def _parse_budget(raw: dict, index: int) -> Budget:
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"budget #{index} must be an object, got {type(raw).__name__}"
        )
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ConfigurationError(
            f"budget #{index} has unknown keys {sorted(unknown)} "
            f"(allowed: {sorted(_ALLOWED_KEYS)})"
        )
    metric = raw.get("metric")
    if not isinstance(metric, str) or not metric:
        raise ConfigurationError(f"budget #{index} needs a 'metric' string")
    present = [p for p in PREDICATES if p in raw]
    if len(present) != 1:
        raise ConfigurationError(
            f"budget #{index} ({metric}) must define exactly one of "
            f"{PREDICATES}, found {present or 'none'}"
        )
    predicate = present[0]
    threshold = raw[predicate]
    if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
        raise ConfigurationError(
            f"budget #{index} ({metric}): {predicate} threshold must be "
            f"a number, got {threshold!r}"
        )
    over = raw.get("over", [])
    if predicate == "ratio_ge":
        if (
            not isinstance(over, list)
            or not over
            or not all(isinstance(n, str) for n in over)
        ):
            raise ConfigurationError(
                f"budget #{index} ({metric}): ratio_ge needs a non-empty "
                "'over' list of metric names"
            )
    elif over:
        raise ConfigurationError(
            f"budget #{index} ({metric}): 'over' only applies to ratio_ge"
        )
    severity = raw.get("severity", "hard")
    if severity not in _SEVERITIES:
        raise ConfigurationError(
            f"budget #{index} ({metric}): severity must be one of "
            f"{_SEVERITIES}, got {severity!r}"
        )
    required = raw.get("required", False)
    if not isinstance(required, bool):
        raise ConfigurationError(
            f"budget #{index} ({metric}): 'required' must be a boolean"
        )
    return Budget(
        metric=metric,
        predicate=predicate,
        threshold=float(threshold),
        over=tuple(over),
        severity=severity,
        required=required,
        note=str(raw.get("note", "")),
    )


def load_budgets(path: Union[str, Path]) -> list[Budget]:
    """Load and validate a budgets file.

    Raises :class:`repro.errors.ConfigurationError` on a missing file,
    unparseable JSON, or any schema violation — a budgets file that
    silently half-loads would gate on less than the author wrote.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"budgets file not found: {path}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"budgets file {path} is not JSON: {exc}")
    if not isinstance(document, dict) or not isinstance(
        document.get("budgets"), list
    ):
        raise ConfigurationError(
            f"budgets file {path} must be an object with a 'budgets' list"
        )
    return [
        _parse_budget(raw, i) for i, raw in enumerate(document["budgets"])
    ]


# -- evaluation --------------------------------------------------------


def _scalar_candidates(snapshot: dict, predicate: str) -> dict[str, float]:
    """Every metric name in ``snapshot`` with its scalar for ``predicate``."""
    values: dict[str, float] = {}
    for name, value in snapshot.get("counters", {}).items():
        values[name] = float(value)
    for name, value in snapshot.get("gauges", {}).items():
        values[name] = float(value)
    for name, agg in snapshot.get("spans", {}).items():
        values[name] = float(agg["total_s"])
    for name, agg in snapshot.get("histograms", {}).items():
        if predicate == "p95_le":
            p95 = hist_percentile(agg, 0.95)
            if p95 is not None:
                values[name] = p95
        elif predicate == "max":
            values[name] = float(agg["max"])
        elif predicate == "min":
            values[name] = float(agg["min"])
        else:
            values[name] = float(agg["sum"])
    return values


def _matches(pattern: str, values: dict[str, float]) -> list[str]:
    if any(ch in pattern for ch in "*?["):
        return sorted(name for name in values if fnmatchcase(name, pattern))
    return [pattern] if pattern in values else []


def evaluate(budgets: list[Budget], snapshot: dict) -> list[Verdict]:
    """Evaluate every budget against one snapshot.

    Returns one :class:`Verdict` per (budget, matched metric) pair —
    pattern budgets fan out — plus one *absent* verdict per budget that
    matched nothing (passing but not measured unless the budget is
    ``required``).
    """
    verdicts: list[Verdict] = []
    for budget in budgets:
        values = _scalar_candidates(snapshot, budget.predicate)
        matched = _matches(budget.metric, values)
        if not matched:
            verdicts.append(
                Verdict(
                    budget=budget,
                    metric=budget.metric,
                    ok=not budget.required,
                    detail="metric absent"
                    + (" but required" if budget.required else ""),
                )
            )
            continue
        for name in matched:
            value = values[name]
            if budget.predicate == "ratio_ge":
                denominator = sum(values.get(n, 0.0) for n in budget.over)
                if denominator == 0:
                    verdicts.append(
                        Verdict(
                            budget=budget,
                            metric=name,
                            ok=not budget.required,
                            detail="ratio denominator is zero",
                        )
                    )
                    continue
                value = value / denominator
                ok = value >= budget.threshold
            elif budget.predicate in ("min",):
                ok = value >= budget.threshold
            else:  # max, p95_le
                ok = value <= budget.threshold
            verdicts.append(Verdict(budget=budget, metric=name, ok=ok, value=value))
    return verdicts


def violations(
    verdicts: list[Verdict], include_soft: bool = False
) -> list[Verdict]:
    """The failing verdicts — hard ones only unless ``include_soft``."""
    return [
        v
        for v in verdicts
        if not v.ok and (include_soft or v.budget.is_hard)
    ]


def render_verdicts(verdicts: list[Verdict]) -> str:
    """A plain-text report, violations first."""
    if not verdicts:
        return "no budgets evaluated\n"
    ordered = sorted(verdicts, key=lambda v: (v.ok, v.metric))
    lines = [v.describe() for v in ordered]
    failed = violations(verdicts, include_soft=True)
    hard = sum(1 for v in failed if v.budget.is_hard)
    unmeasured = sum(1 for v in verdicts if v.not_measured)
    ok = len(verdicts) - len(failed) - unmeasured
    lines.append(
        f"{len(verdicts)} verdict(s): {ok} ok, {unmeasured} not measured, "
        f"{len(failed) - hard} soft violation(s), {hard} hard violation(s)"
    )
    return "\n".join(lines) + "\n"


def check_snapshot(
    snapshot: dict, budgets_path: Union[str, Path]
) -> tuple[list[Verdict], list[Verdict]]:
    """Convenience: load budgets, evaluate, split out hard violations.

    Returns ``(all_verdicts, hard_violations)``.
    """
    verdicts = evaluate(load_budgets(budgets_path), snapshot)
    return verdicts, violations(verdicts)
