"""The built-in DS rule set.

Each rule is a :class:`repro.lint.engine.Rule` plugin registered with
the :func:`repro.lint.engine.rule` decorator; ``docs/linting.md``
documents the rationale, remediation and scoping of every code.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint.engine import FileContext, Finding, MetricManifest, Rule, rule

#: Magic unit multipliers and their named equivalents in repro.units.
UNIT_LITERALS: dict[float, str] = {
    1e-3: "units.MILLI",
    1e-6: "units.MICRO",
    1e-9: "units.NANO",
    1e3: "units.KILO",
    1e6: "units.MEGA",
    1e9: "units.GIGA",
    273.15: "a named Celsius/Kelvin offset constant",
}

#: Exception names DS201 refuses in library raises.
BARE_EXCEPTIONS = frozenset(
    {"ValueError", "RuntimeError", "KeyError", "Exception"}
)

#: Registry recording methods whose first argument is a metric name.
METRIC_METHODS = frozenset({"incr", "gauge", "histogram", "span"})

#: Receivers treated as the observability registry at a call site.
METRIC_RECEIVERS = frozenset({"obs", "REGISTRY"})

#: Receiver terminal names whose recordings count as emitted metric
#: names (:func:`metric_usage`).  Wider than DS301's enforcement set on
#: purpose: the obs layer itself records through locals named
#: ``registry``/``_registry``, and those emissions must count as "used".
HARVEST_RECEIVERS = METRIC_RECEIVERS | {"registry", "_registry"}

#: Grammar for literal metric names: lowercase dotted, >= 2 components.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9][a-z0-9_]*)+$")

#: Grammar for the literal prefix of an f-string metric name.
METRIC_PREFIX_RE = re.compile(r"^[a-z][a-z0-9_.]*\.$")

#: Constructors whose instances fan work out to processes.
POOL_CONSTRUCTORS = frozenset({"SweepRunner", "ProcessPoolExecutor", "Pool"})

#: Variable names assumed to hold a pool even without a visible
#: constructor (parameters like ``runner`` threaded through calls).
POOL_NAME_HINTS = frozenset({"runner", "pool", "sweep", "executor"})

#: np.random constructs that are fine (explicitly seeded generators).
SEEDED_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence"})

#: Function-name prefixes exempt from DS702: these *are* the lifecycle
#: API, and handing back an open handle is their job.
LIFECYCLE_PREFIXES = ("start", "enable", "open", "acquire", "serve")


def _float_const(node: ast.AST) -> Optional[float]:
    """The node's value when it is a float literal, else ``None``."""
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return node.value
    return None


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


def _literal_prefix(node: ast.JoinedStr) -> str:
    """The literal text an f-string starts with (``"store."``)."""
    prefix = ""
    for part in node.values:
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            prefix += part.value
        else:
            break
    return prefix


def _call_name(node: ast.AST) -> Optional[str]:
    """Terminal name of a Call's callee (``SweepRunner`` in both
    ``SweepRunner(...)`` and ``perf.SweepRunner(...)``)."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


@rule
class MagicUnitLiteral(Rule):
    """DS101: multiplying/dividing by a raw unit literal.

    ``x * 1e-3`` hides whether the code converts mm to m or W to mW;
    ``x * units.MILLI`` states it.  Only multiplication/division
    operands are flagged — additive tolerances (``peak <= limit + 1e-6``)
    and standalone constant definitions are legitimate.  ``units.py``
    itself, where the multipliers are defined, is exempt.
    """

    code = "DS101"
    visits = (ast.BinOp,)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_library and ctx.library_rel != "units.py"

    def visit(self, node: ast.BinOp, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node.op, (ast.Mult, ast.Div)):
            return
        for side in (node.left, node.right):
            value = _float_const(side)
            if value is not None and value in UNIT_LITERALS:
                yield Finding(
                    self.code,
                    ctx.path,
                    side.lineno,
                    side.col_offset,
                    f"magic unit literal {value!r}; use "
                    f"{UNIT_LITERALS[value]} from repro.units",
                )


@rule
class FloatEqualityOnQuantity(Rule):
    """DS102: ``==`` / ``!=`` against a float literal.

    Float equality on a physical quantity is almost always a bug; where
    it is an *exact sentinel* (a power-gated frequency of exactly 0.0),
    the code must say so — via :func:`repro.units.is_gated` /
    :data:`repro.units.F_GATED`, or an inline
    ``# repro-lint: disable=DS102 - <why exactness holds>`` annotation.
    Integer comparisons are untouched.
    """

    code = "DS102"
    visits = (ast.Compare,)

    def visit(self, node: ast.Compare, ctx: FileContext) -> Iterator[Finding]:
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            pair, left = (left, right), right
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in pair:
                value = _float_const(side)
                if value is None:
                    continue
                yield Finding(
                    self.code,
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    f"float equality against {value!r}; use a named "
                    "sentinel (units.is_gated) or annotate why exact "
                    "comparison holds",
                )
                break


@rule
class BareStdlibRaise(Rule):
    """DS201: raising a bare stdlib exception in library code.

    Callers are promised "everything :mod:`repro` raises derives from
    :class:`repro.errors.ReproError`"; a bare ``ValueError`` escapes
    that contract.  Raise ``ConfigurationError`` / ``InfeasibleError`` /
    ``ConvergenceError`` / ``MappingError`` (or a new subclass) instead.
    """

    code = "DS201"
    visits = (ast.Raise,)

    def visit(self, node: ast.Raise, ctx: FileContext) -> Iterator[Finding]:
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in BARE_EXCEPTIONS:
            yield Finding(
                self.code,
                ctx.path,
                node.lineno,
                node.col_offset,
                f"raise of bare {name}; raise a repro.errors.ReproError "
                "subclass instead",
            )


@rule
class MetricNameConvention(Rule):
    """DS301: obs metric names must be literal, dotted, and registered.

    Names recorded through :mod:`repro.obs` feed snapshots, diffs,
    merges and the performance report; a typo'd or drifting name
    silently forks a time series.  Literal names must match the
    ``subsystem.metric`` grammar and appear in the metric manifest
    (``docs/metrics.txt``); f-string names need a literal dotted prefix
    covered by the manifest (``f"store.{name}"`` needs a ``store.``
    entry or wildcard).  The :mod:`repro.obs` implementation itself,
    which plumbs caller-supplied names, is exempt.
    """

    code = "DS301"
    visits = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        if not ctx.in_library or ctx.library_rel is None:
            return False
        return not ctx.library_rel.startswith("obs/")

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in METRIC_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in METRIC_RECEIVERS
        ):
            return
        if not node.args:
            return
        name_arg = node.args[0]
        where = (name_arg.lineno, name_arg.col_offset)
        if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
            name = name_arg.value
            if not METRIC_NAME_RE.match(name):
                yield Finding(
                    self.code,
                    ctx.path,
                    *where,
                    f"metric name {name!r} violates the dotted "
                    "lowercase grammar (subsystem.metric)",
                )
            elif ctx.manifest is not None and not ctx.manifest.covers(name):
                yield Finding(
                    self.code,
                    ctx.path,
                    *where,
                    f"metric name {name!r} is not registered in the "
                    "metric manifest (docs/metrics.txt)",
                )
        elif isinstance(name_arg, ast.JoinedStr):
            prefix = _literal_prefix(name_arg)
            if not prefix or not METRIC_PREFIX_RE.match(prefix):
                yield Finding(
                    self.code,
                    ctx.path,
                    *where,
                    "dynamic metric name needs a literal dotted prefix "
                    "(f\"subsystem.{...}\")",
                )
            elif ctx.manifest is not None and not ctx.manifest.covers_prefix(
                prefix
            ):
                yield Finding(
                    self.code,
                    ctx.path,
                    *where,
                    f"metric name prefix {prefix!r} has no entry in the "
                    "metric manifest (docs/metrics.txt)",
                )
        else:
            yield Finding(
                self.code,
                ctx.path,
                *where,
                "metric name must be a string literal or an f-string "
                "with a literal dotted prefix",
            )


@rule
class SpawnUnsafeWorker(Rule):
    """DS401: spawn-unsafe constructs handed to process pools.

    Under the ``spawn`` start method, workers re-import the module: a
    lambda or closure cannot be pickled across, and a worker mutating
    module-level state via ``global`` updates the *worker's* copy, not
    the parent's.  Cell functions given to :class:`SweepRunner.map
    <repro.perf.sweep.SweepRunner>` or ``ProcessPoolExecutor`` must be
    module-level callables (or ``functools.partial`` over one) with
    results returned, not written to globals.  Applies to tests too —
    a spawn-unsafe fixture hides real worker bugs.
    """

    code = "DS401"
    visits = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        return True

    def begin_file(self, ctx: FileContext) -> None:
        self.tree = ctx.tree
        #: Filled by :meth:`_scan` at the file's first ``.map``/``.submit``.
        self.pool_names: Optional[set[str]] = None

    def _scan(self) -> None:
        """Collect pool names, nested defs and module defs in one walk."""
        self.pool_names = set()
        self.nested_defs: set[str] = set()
        self.module_defs: dict[str, ast.AST] = {}
        # Each node carries whether a def encloses it.
        stack: list[tuple[ast.AST, bool]] = [(self.tree, False)]
        while stack:
            node, in_def = stack.pop()
            if isinstance(node, ast.Assign):
                if _call_name(node.value) in POOL_CONSTRUCTORS:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.pool_names.add(target.id)
            elif isinstance(node, ast.withitem):
                if _call_name(node.context_expr) in POOL_CONSTRUCTORS and isinstance(
                    node.optional_vars, ast.Name
                ):
                    self.pool_names.add(node.optional_vars.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_def:
                    self.nested_defs.add(node.name)
                in_def = True
            stack.extend((child, in_def) for child in ast.iter_child_nodes(node))
        if isinstance(self.tree, ast.Module):
            for stmt in self.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.module_defs[stmt.name] = stmt

    def _is_pool_dispatch(self, node: ast.Call) -> bool:
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in ("map", "submit")
        ):
            return False
        if self.pool_names is None:
            self._scan()
        recv = func.value
        if _call_name(recv) in POOL_CONSTRUCTORS:
            return True
        if isinstance(recv, ast.Name):
            return recv.id in self.pool_names or recv.id in POOL_NAME_HINTS
        if isinstance(recv, ast.Attribute):
            return recv.attr in self.pool_names or recv.attr in POOL_NAME_HINTS
        return False

    def _offences(self, arg: ast.AST) -> Iterator[str]:
        if isinstance(arg, ast.Lambda):
            yield "lambda cannot be pickled to a spawn worker"
        elif isinstance(arg, ast.Name):
            if arg.id in self.nested_defs:
                yield (
                    f"closure {arg.id!r} (defined inside a function) "
                    "cannot be pickled to a spawn worker"
                )
            else:
                target = self.module_defs.get(arg.id)
                if target is not None and any(
                    isinstance(child, ast.Global) for child in ast.walk(target)
                ):
                    yield (
                        f"worker {arg.id!r} mutates module-level state via "
                        "'global'; mutations are lost in spawn workers"
                    )
        elif _call_name(arg) == "partial" and isinstance(arg, ast.Call):
            for inner in (*arg.args, *(kw.value for kw in arg.keywords)):
                yield from self._offences(inner)

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if not self._is_pool_dispatch(node):
            return
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            for reason in self._offences(arg):
                yield Finding(
                    self.code,
                    ctx.path,
                    arg.lineno,
                    arg.col_offset,
                    reason,
                )


@rule
class NondeterministicModelCode(Rule):
    """DS402: wall-clock / unseeded randomness outside :mod:`repro.obs`.

    Experiment results are content-addressed and fingerprinted
    (:mod:`repro.store`, ``runs.jsonl``); a model or experiment reading
    ``time.time()`` or ``random.*`` produces irreproducible payloads
    that silently defeat the cache and the provenance ledger.
    ``time.perf_counter`` (duration measurement) and explicitly seeded
    ``np.random.default_rng(seed)`` generators are fine; the
    :mod:`repro.obs` layer, which needs epoch anchors for trace
    re-basing, is exempt.
    """

    code = "DS402"
    visits = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        if not ctx.in_library or ctx.library_rel is None:
            return False
        return not ctx.library_rel.startswith(("obs/", "lint/"))

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        where = (func.lineno, func.col_offset)
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "time" and func.attr == "time":
                yield Finding(
                    self.code,
                    ctx.path,
                    *where,
                    "time.time() in model/experiment code breaks "
                    "fingerprint reproducibility; use time.perf_counter "
                    "for durations or pass timestamps in",
                )
            elif base.id == "random":
                yield Finding(
                    self.code,
                    ctx.path,
                    *where,
                    f"random.{func.attr} is unseeded global randomness; "
                    "use np.random.default_rng(seed)",
                )
            elif base.id == "datetime" and func.attr in (
                "now",
                "utcnow",
                "today",
            ):
                yield Finding(
                    self.code,
                    ctx.path,
                    *where,
                    f"datetime.{func.attr}() reads the wall clock; pass "
                    "timestamps in explicitly",
                )
        elif (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
            and func.attr not in SEEDED_RANDOM_OK
        ):
            yield Finding(
                self.code,
                ctx.path,
                *where,
                f"np.random.{func.attr} uses the unseeded global "
                "generator; use np.random.default_rng(seed)",
            )


class _HandleFacts(ast.NodeVisitor):
    """One function body's file-handle facts for DS702.

    Records ``open()``/``.open()`` handles bound to names, the names
    ``.close()`` is called on, names managed by ``with``, and names that
    escape the function (returned, yielded, stored into an attribute or
    container, or passed as an argument).  Nested defs and lambdas are
    opaque.
    """

    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.opens: list[tuple[str, int, int]] = []
        self.released: set[str] = set()
        for stmt in node.body:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def _record_assign_target(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value, ast.Call) and "open" in (
                getattr(value.func, "id", None),
                getattr(value.func, "attr", None),
            ):
                self.opens.append((target.id, value.lineno, value.col_offset))
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # Stores into attributes/containers make the value escape.
            if isinstance(value, ast.Name):
                self.released.add(value.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_assign_target(element, value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assign_target(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assign_target(node.target, node.value)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Name):
            self.released.add(node.value.id)
        elif isinstance(node.value, ast.Call):
            # ``return self`` chains and wrapped handles escape too.
            for arg in node.value.args:
                if isinstance(arg, ast.Name):
                    self.released.add(arg.id)
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        if isinstance(node.value, ast.Name):
            self.released.add(node.value.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            dotted = _dotted_name(item.context_expr)
            if dotted is not None and not dotted.startswith("self."):
                self.released.add(dotted)
            if isinstance(item.optional_vars, ast.Name):
                self.released.add(item.optional_vars.id)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        callee = _dotted_name(node.func)
        if callee is not None:
            receiver, _, terminal = callee.rpartition(".")
            if terminal == "close" and receiver:
                self.released.add(receiver)
        # Names passed as arguments escape the function's custody.
        for arg in node.args:
            if isinstance(arg, ast.Name):
                self.released.add(arg.id)
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name):
                self.released.add(kw.value.id)
        self.generic_visit(node)


@rule
class UnclosedResource(Rule):
    """DS702: opened file handle neither closed nor handed off.

    A handle from ``open()``/``.open()`` bound to a name must be closed
    in the same function, handed off (returned, stored, passed on), or
    managed by ``with``.  Checks module-level functions and the methods
    of module-level classes; a function whose name starts with a
    lifecycle verb (``start``/``enable``/``open``/``acquire``/``serve``)
    *is* the lifecycle API and is exempt.  Applies to tests too.
    """

    code = "DS702"
    visits = (ast.Module,)

    def applies(self, ctx: FileContext) -> bool:
        return True

    def visit(self, node: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        functions: list[tuple[str, ast.AST]] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((stmt.name, stmt))
            elif isinstance(stmt, ast.ClassDef):
                functions.extend(
                    (f"{stmt.name}.{member.name}", member)
                    for member in stmt.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
        for local, func in functions:
            if func.name.lstrip("_").startswith(LIFECYCLE_PREFIXES):
                continue
            facts = _HandleFacts(func)
            for var, line, col in facts.opens:
                if var in facts.released:
                    continue
                yield Finding(
                    self.code,
                    ctx.path,
                    line,
                    col,
                    f"open(...) opened as '{var}' in {local}() but never "
                    "closed, handed off, or managed by 'with'",
                )


def metric_usage(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Statically harvest the metric names one file records.

    Returns ``(literal_names, fstring_prefixes)`` over every
    ``incr``/``gauge``/``histogram``/``span`` call whose receiver ends
    in one of :data:`HARVEST_RECEIVERS` — the one harvester behind both
    ``darksilicon lint --emit-manifest`` (which seeds
    ``docs/metrics.txt``) and the DS302 stale-entry check.
    """
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
        if receiver is None or receiver.rsplit(".", 1)[-1] not in HARVEST_RECEIVERS:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            names.add(arg.value)
        elif isinstance(arg, ast.JoinedStr):
            prefix = _literal_prefix(arg)
            if prefix:
                prefixes.add(prefix)
    return names, prefixes
