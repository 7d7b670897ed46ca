"""Phase 1 of the whole-program lint: per-module summaries.

:func:`summarize_source` distils one parsed file into a JSON-ready
:class:`ModuleSummary` — everything phase 2 (:mod:`repro.lint.callgraph`
linking plus the :mod:`repro.lint.dataflow` rule families) needs to
reason *across* files without re-reading them:

* the import map (local name -> qualified target), so call references
  written as ``units.ghz`` or ``ThermalSafePower`` resolve to one
  program-wide qualified name;
* per-function call sites (callee as written, location) and
  ``global`` writes, which DS602 walks through the call graph;
* file-handle facts for DS702 — ``open()``/``.open()`` handles, their
  ``.close()`` calls, ``with``-managed names and escapes (returns,
  stores, argument passes);
* spawn-dispatch sites (workers handed to process pools) and the
  harvested metric names/prefixes used by the stale-manifest check;
* the file's inline-suppression map, so phase-2 findings respect
  ``# repro-lint: disable=DSxxx`` comments exactly like phase-1 ones.

Summaries are content-addressed: :class:`SummaryCache` stores the
summary *and* the file's phase-1 findings in a
:class:`repro.store.ArtifactStore` keyed by the source's SHA-256 (plus
the manifest digest, which DS301 findings depend on), so a warm lint
run skips parsing and summarising unchanged files entirely.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

#: Summary schema version: bump to invalidate every cached summary.
SUMMARY_VERSION = 3

#: Cache fingerprint (see ArtifactStore.get_payload): encodes the
#: summary schema and the rule-engine generation, so either bumping
#: invalidates warm summaries.
CACHE_FINGERPRINT = f"repro-lint-cache-v{SUMMARY_VERSION}"

#: Method names that mutate their receiver in place — a call
#: ``CACHE.update(...)`` on a module global counts as a module-state
#: mutation for DS602.
MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "setdefault",
        "write",
    }
)

#: Receiver terminal names treated as a metric registry when harvesting
#: names for the stale-manifest check.  Wider than DS301's enforcement
#: set on purpose: the obs layer itself records through locals named
#: ``registry``/``_registry``, and those emissions must count as "used".
HARVEST_RECEIVERS = frozenset({"obs", "REGISTRY", "registry", "_registry"})

#: Function or method name that returns a file handle for DS702
#: (``open(...)``, ``Path(...).open(...)``).
OPENER = "open"


def _dotted_name(node: ast.AST) -> Optional[str]:
    """The expression as a dotted name (``units.ghz``), when it is one."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ModuleSummary:
    """Everything phase 2 needs to know about one source file."""

    path: str
    module: str
    in_library: bool
    imports: dict[str, str] = field(default_factory=dict)
    module_globals: list[str] = field(default_factory=list)
    #: qualname ("func" / "Class.method") -> function fact dict.
    functions: dict[str, dict] = field(default_factory=dict)
    #: class name -> {"ln": line}; phase 2 resolves constructors by it.
    classes: dict[str, dict] = field(default_factory=dict)
    spawn_dispatches: list[dict] = field(default_factory=list)
    metric_names: list[str] = field(default_factory=list)
    metric_prefixes: list[str] = field(default_factory=list)
    #: line -> suppressed codes ("*" = all), mirrored from the engine.
    suppressions: dict[int, list[str]] = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "version": SUMMARY_VERSION,
            "path": self.path,
            "module": self.module,
            "in_library": self.in_library,
            "imports": self.imports,
            "module_globals": self.module_globals,
            "functions": self.functions,
            "classes": self.classes,
            "spawn_dispatches": self.spawn_dispatches,
            "metric_names": self.metric_names,
            "metric_prefixes": self.metric_prefixes,
            "suppressions": {
                str(line): codes for line, codes in self.suppressions.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ModuleSummary":
        return cls(
            path=payload["path"],
            module=payload["module"],
            in_library=payload["in_library"],
            imports=payload["imports"],
            module_globals=payload["module_globals"],
            functions=payload["functions"],
            classes=payload["classes"],
            spawn_dispatches=payload["spawn_dispatches"],
            metric_names=payload["metric_names"],
            metric_prefixes=payload["metric_prefixes"],
            suppressions={
                int(line): codes
                for line, codes in payload["suppressions"].items()
            },
        )


class _FunctionSummarizer(ast.NodeVisitor):
    """Collects one function body's call, global-write and file-handle facts."""

    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.node = node
        self.calls: list[dict] = []
        self.global_writes: list[str] = []
        self.opens: list[dict] = []
        self.closes: set[str] = set()
        self.escapes: set[str] = set()
        self.with_vars: set[str] = set()
        self._global_names: set[str] = set()
        for stmt in node.body:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs are opaque to the interprocedural pass.
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_Global(self, node: ast.Global) -> None:
        self._global_names.update(node.names)

    def _record_assign_target(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value, ast.Call) and OPENER in (
                getattr(value.func, "id", None),
                getattr(value.func, "attr", None),
            ):
                self.opens.append(
                    {
                        "var": target.id,
                        "ln": value.lineno,
                        "col": value.col_offset,
                    }
                )
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # Stores into attributes/containers make the value escape.
            if isinstance(value, ast.Name):
                self.escapes.add(value.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_assign_target(element, value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assign_target(target, node.value)
            if isinstance(target, ast.Name) and target.id in self._global_names:
                self.global_writes.append(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assign_target(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name) and target.id in self._global_names:
            self.global_writes.append(target.id)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Name):
            self.escapes.add(node.value.id)
        elif isinstance(node.value, ast.Call):
            # ``return self`` chains and wrapped handles escape too.
            for arg in node.value.args:
                if isinstance(arg, ast.Name):
                    self.escapes.add(arg.id)
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        if isinstance(node.value, ast.Name):
            self.escapes.add(node.value.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            dotted = _dotted_name(item.context_expr)
            if dotted is not None and not dotted.startswith("self."):
                self.with_vars.add(dotted)
            if isinstance(item.optional_vars, ast.Name):
                self.with_vars.add(item.optional_vars.id)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        callee = _dotted_name(node.func)
        if callee is not None:
            self.calls.append(
                {
                    "callee": callee,
                    "ln": node.lineno,
                    "col": node.col_offset,
                    "star": any(
                        isinstance(a, ast.Starred) for a in node.args
                    )
                    or any(kw.arg is None for kw in node.keywords),
                }
            )
            receiver, _, terminal = callee.rpartition(".")
            if terminal == "close" and receiver:
                self.closes.add(receiver)
        # Names passed as arguments escape the function's custody.
        for arg in node.args:
            if isinstance(arg, ast.Name):
                self.escapes.add(arg.id)
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name):
                self.escapes.add(kw.value.id)
        self.generic_visit(node)

    def facts(self) -> dict:
        return {
            "ln": self.node.lineno,
            "col": self.node.col_offset,
            "calls": self.calls,
            "global_writes": sorted(set(self.global_writes)),
            "handles": {
                "opens": self.opens,
                "closes": sorted(self.closes),
                "escapes": sorted(self.escapes),
                "with": sorted(self.with_vars),
            },
        }


def _module_name(path: str, library_rel: Optional[str]) -> str:
    if library_rel is not None:
        stem = library_rel[: -len(".py")] if library_rel.endswith(".py") else library_rel
        dotted = stem.replace("/", ".")
        if dotted == "__init__" or not dotted:
            return "repro"
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        return f"repro.{dotted}"
    parts = [p for p in path.split("/") if p]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts) or path


def _imports(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name -> qualified target for every import statement."""
    out: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    out[alias.name.split(".", 1)[0]] = alias.name.split(
                        ".", 1
                    )[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = module.split(".")
                # level 1 = current package, 2 = parent, ...
                anchor = base_parts[: len(base_parts) - node.level]
                base = ".".join(anchor + ([node.module] if node.module else []))
            else:
                base = node.module or package
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}" if base else alias.name
    return out


def _spawn_dispatches(tree: ast.Module) -> list[dict]:
    """Workers handed to process pools, as written (for DS602)."""
    from repro.lint.rules import POOL_CONSTRUCTORS, POOL_NAME_HINTS

    pool_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            value = node.value
            if (
                isinstance(value, ast.Call)
                and _dotted_name(value.func) is not None
                and _dotted_name(value.func).rsplit(".", 1)[-1]
                in POOL_CONSTRUCTORS
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        pool_names.add(target.id)
        elif isinstance(node, ast.withitem):
            expr = node.context_expr
            if (
                isinstance(expr, ast.Call)
                and _dotted_name(expr.func) is not None
                and _dotted_name(expr.func).rsplit(".", 1)[-1]
                in POOL_CONSTRUCTORS
                and isinstance(node.optional_vars, ast.Name)
            ):
                pool_names.add(node.optional_vars.id)

    def is_pool(recv: ast.AST) -> bool:
        dotted = _dotted_name(recv)
        if isinstance(recv, ast.Call):
            name = _dotted_name(recv.func)
            return (
                name is not None
                and name.rsplit(".", 1)[-1] in POOL_CONSTRUCTORS
            )
        if dotted is None:
            return False
        terminal = dotted.rsplit(".", 1)[-1]
        return terminal in pool_names or terminal in POOL_NAME_HINTS

    dispatches: list[dict] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in ("map", "submit")
        ):
            continue
        if not is_pool(func.value):
            continue
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            worker = None
            if isinstance(arg, (ast.Name, ast.Attribute)):
                worker = _dotted_name(arg)
            elif isinstance(arg, ast.Call):
                name = _dotted_name(arg.func)
                if name is not None and name.rsplit(".", 1)[-1] == "partial":
                    if arg.args and isinstance(
                        arg.args[0], (ast.Name, ast.Attribute)
                    ):
                        worker = _dotted_name(arg.args[0])
            if worker is not None:
                dispatches.append(
                    {
                        "worker": worker,
                        "ln": arg.lineno,
                        "col": arg.col_offset,
                    }
                )
    return dispatches


def _metric_usage(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names/prefixes recorded through any registry-like receiver."""
    from repro.lint.rules import METRIC_METHODS

    names: set[str] = set()
    prefixes: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in METRIC_METHODS
            and node.args
        ):
            continue
        receiver = _dotted_name(func.value)
        if receiver is None:
            continue
        if receiver.rsplit(".", 1)[-1] not in HARVEST_RECEIVERS:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            names.add(arg.value)
        elif isinstance(arg, ast.JoinedStr):
            prefix = ""
            for part in arg.values:
                if isinstance(part, ast.Constant) and isinstance(
                    part.value, str
                ):
                    prefix += part.value
                else:
                    break
            if prefix:
                prefixes.add(prefix)
    return names, prefixes


def summarize_source(
    source: str,
    path: str,
    tree: ast.Module,
    *,
    library_rel: Optional[str],
    in_library: bool,
    suppressions: Optional[dict[int, set[str]]] = None,
) -> ModuleSummary:
    """Build one file's :class:`ModuleSummary` from its parsed tree."""
    module = _module_name(path, library_rel)
    summary = ModuleSummary(
        path=path,
        module=module,
        in_library=in_library,
        imports=_imports(tree, module),
        spawn_dispatches=_spawn_dispatches(tree),
    )
    names, prefixes = _metric_usage(tree)
    summary.metric_names = sorted(names)
    summary.metric_prefixes = sorted(prefixes)
    if suppressions:
        summary.suppressions = {
            line: sorted(codes) for line, codes in suppressions.items()
        }
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    summary.module_globals.append(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            summary.module_globals.append(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fs = _FunctionSummarizer(stmt)
            summary.functions[stmt.name] = fs.facts()
        elif isinstance(stmt, ast.ClassDef):
            summary.classes[stmt.name] = {"ln": stmt.lineno}
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fs = _FunctionSummarizer(member)
                    summary.functions[f"{stmt.name}.{member.name}"] = fs.facts()
    summary.module_globals = sorted(set(summary.module_globals))
    return summary


# -- content-addressed summary cache ----------------------------------


def content_hash(source: str) -> str:
    """SHA-256 of the file's text — the cache coordinate."""
    return hashlib.sha256(source.encode()).hexdigest()


class SummaryCache:
    """Warm-run summary + findings cache on a :class:`ArtifactStore`.

    One envelope per ``(path, content-hash, manifest-digest)``: the
    payload holds the module summary *and* the file's phase-1 findings,
    so a warm run skips parsing entirely for unchanged files.  The
    engine-generation fingerprint (:data:`CACHE_FINGERPRINT`) is
    verified on read, so bumping :data:`SUMMARY_VERSION` invalidates
    every stale envelope in place.
    """

    EXPERIMENT = "lint_summary"

    def __init__(self, root) -> None:
        from repro.store import ArtifactStore

        self.store = ArtifactStore(root)
        self.hits = 0
        self.misses = 0

    def _params(self, path: str, digest: str, manifest_digest: str) -> str:
        return json.dumps(
            {"path": path, "sha256": digest, "manifest": manifest_digest},
            sort_keys=True,
        )

    def get(
        self, path: str, digest: str, manifest_digest: str
    ) -> Optional[dict]:
        payload = self.store.get_payload(
            self.EXPERIMENT,
            self._params(path, digest, manifest_digest),
            CACHE_FINGERPRINT,
        )
        if payload is None or payload.get("version") != SUMMARY_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(
        self,
        path: str,
        digest: str,
        manifest_digest: str,
        summary: ModuleSummary,
        findings: list,
    ) -> None:
        payload = {
            "version": SUMMARY_VERSION,
            "summary": summary.to_payload(),
            "findings": [f.to_dict() for f in findings],
        }
        self.store.put_payload(
            self.EXPERIMENT,
            self._params(path, digest, manifest_digest),
            CACHE_FINGERPRINT,
            payload,
        )
