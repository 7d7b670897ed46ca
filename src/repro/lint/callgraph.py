"""Phase 2a of the whole-program lint: linking summaries into a program.

:class:`Program` joins the per-module summaries produced by
:mod:`repro.lint.summaries` into one namespace:

* a function index keyed by qualified name
  (``repro.core.tsp.ThermalSafePower.worst_case``);
* name resolution from a *reference as written* in one module
  (``units.ghz``, ``Baseline``, ``self._solve``) to that index, via the
  module's import map, with re-export chasing so ``repro.lint.Baseline``
  links to ``repro.lint.baseline.Baseline``;
* call-graph edges and reachability (used by DS602 spawn analysis).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.lint.summaries import ModuleSummary


class Program:
    """The linked whole-program view over a set of module summaries."""

    def __init__(
        self,
        summaries: Iterable[ModuleSummary],
        *,
        manifest=None,
        stale_manifest: bool = False,
    ) -> None:
        self.summaries = list(summaries)
        #: The loaded :class:`repro.lint.engine.MetricManifest` (opaque
        #: here; consumed by the DS302 stale-entry rule).
        self.manifest = manifest
        #: Whether DS302 should run (only sound on whole-tree walks).
        self.stale_manifest = stale_manifest
        self.modules: dict[str, ModuleSummary] = {
            s.module: s for s in self.summaries
        }
        #: "module.qualname" -> function facts.
        self.functions: dict[str, dict] = {}
        #: "module.qualname" -> owning summary (for import resolution).
        self.owner: dict[str, ModuleSummary] = {}
        #: "module.Class" -> class facts.
        self.classes: dict[str, dict] = {}
        for summary in self.summaries:
            for qualname, facts in summary.functions.items():
                key = f"{summary.module}.{qualname}"
                self.functions[key] = facts
                self.owner[key] = summary
            for name, facts in summary.classes.items():
                self.classes[f"{summary.module}.{name}"] = facts

    # -- name resolution ----------------------------------------------

    def resolve_name(
        self, summary: ModuleSummary, dotted: str
    ) -> Optional[str]:
        """Qualified name for a reference as written in ``summary``."""
        head, _, rest = dotted.partition(".")
        if head == "self":
            return None
        if head in summary.imports:
            base = summary.imports[head]
            qualified = f"{base}.{rest}" if rest else base
        elif dotted in summary.functions or (
            head in summary.classes or head in summary.module_globals
        ):
            qualified = f"{summary.module}.{dotted}"
        else:
            return None
        return self._dealias(qualified)

    def _dealias(self, qualified: str, depth: int = 0) -> str:
        """Chase re-exports: ``repro.lint.Baseline`` -> its home module."""
        if depth > 4:
            return qualified
        # Longest module prefix that we actually summarized.
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                owner = self.modules[prefix]
                rest = parts[cut:]
                name = rest[0]
                local = ".".join(rest)
                if local in owner.functions or name in owner.classes:
                    return qualified
                if name in owner.imports:
                    rebased = ".".join([owner.imports[name], *rest[1:]])
                    return self._dealias(rebased, depth + 1)
                return qualified
        return qualified

    def resolve_function(
        self,
        summary: ModuleSummary,
        callee: str,
        *,
        caller_class: Optional[str] = None,
    ) -> Optional[str]:
        """Function-index key for a call reference, or ``None``."""
        if callee.startswith("self."):
            if caller_class is None or callee.count(".") != 1:
                return None
            key = f"{summary.module}.{caller_class}.{callee[5:]}"
            return key if key in self.functions else None
        qualified = self.resolve_name(summary, callee)
        if qualified is None:
            return None
        if qualified in self.functions:
            return qualified
        if qualified in self.classes:
            init = f"{qualified}.__init__"
            return init if init in self.functions else None
        return None

    # -- call graph ----------------------------------------------------

    def _caller_class(self, qual: str) -> Optional[str]:
        summary = self.owner[qual]
        local = qual[len(summary.module) + 1 :]
        if "." in local and local.split(".", 1)[0] in summary.classes:
            return local.split(".", 1)[0]
        return None

    def callees(self, qual: str) -> list[tuple[str, dict]]:
        """Resolved (callee key, call fact) pairs for one function."""
        facts = self.functions.get(qual)
        if facts is None:
            return []
        summary = self.owner[qual]
        caller_class = self._caller_class(qual)
        out: list[tuple[str, dict]] = []
        for call in facts["calls"]:
            target = self.resolve_function(
                summary, call["callee"], caller_class=caller_class
            )
            if target is not None:
                out.append((target, call))
        return out

    def reachable(self, start: Iterable[str]) -> set[str]:
        """Functions transitively reachable from ``start`` keys."""
        seen: set[str] = set()
        frontier = [q for q in start if q in self.functions]
        while frontier:
            qual = frontier.pop()
            if qual in seen:
                continue
            seen.add(qual)
            for target, _ in self.callees(qual):
                if target not in seen:
                    frontier.append(target)
        return seen
