"""Command-line entry point: the experiment registry as a service.

Usage::

    darksilicon list                     # registered experiments
    darksilicon describe fig11           # parameter schema + defaults
    darksilicon run fig5                 # one figure
    darksilicon fig5                     # same (legacy spelling)
    darksilicon run fig11 --quick        # shortened transients
    darksilicon run fig11 --params duration=1.5 n_instances=6
    darksilicon run all                  # everything; report failures
    darksilicon run fig10 --store .cache # serve/persist via the store
    darksilicon batch --quick --store .cache   # all cells, cached
    darksilicon batch --quick --store .cache --expect-cached
    darksilicon run fig10 --profile-out snap.json  # profile snapshot
    darksilicon obs watch --snapshot snap.json # budgets verdicts
    darksilicon report --snapshot snap.json    # markdown dashboard

Every experiment is dispatched through
:mod:`repro.experiments.registry`: ``--params key=value`` overrides are
validated against the experiment's typed schema, ``--quick`` applies
the schema's quick-mode values, and ``--store DIR`` routes execution
through the content-addressed artifact store (:mod:`repro.store`) so
repeated runs are served from disk.  ``--force`` bypasses the store and
overwrites.

``run`` and ``batch`` both execute their cells through
:class:`repro.store.BatchRunner` and print one report: a status line
per cell (a failed cell's traceback under it), its table (always for
``run``, with ``--tables`` for ``batch``), a ``[batch]`` footer and,
with a store, a ``[store]`` counter line.  Every cell runs; any failure
makes the exit code 1.  ``run`` is serial; ``batch`` serves warm cells
straight from the store (no worker processes), optionally fans cold
cells out across ``--workers`` processes, and runs ``summary`` last so
it consumes the sibling artifacts the same batch just produced.
``--expect-cached`` makes a warm run a testable assertion (used by
``make figures-smoke``).

``--profile`` enables the :mod:`repro.obs` registry for the run and
appends its snapshot (solver calls, store hits/misses, sweep stages,
peak RSS) after the tables; ``--profile-out`` additionally writes it
to a file (``.csv`` suffix selects CSV, anything else JSON).  That file
is the run's one profile artifact: ``obs watch`` evaluates the
``benchmarks/budgets.json`` budgets against it (exit 1 on hard
violations) and ``report --snapshot`` renders it.

Every ``run``/``batch`` with ``--store`` also appends one
:class:`repro.obs.manifest.RunManifest` line per cell to the store's
``runs.jsonl`` ledger; ``darksilicon report`` renders that ledger plus
an exported obs snapshot into a markdown dashboard under ``reports/``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional

from repro import obs
from repro.errors import ConfigurationError
from repro.experiments import registry
from repro.io import result_to_csv
from repro.thermal.backends import (
    BACKEND_ENV_VAR,
    backend_names,
    default_backend_name,
    set_default_backend,
)

def _profile_snapshot() -> dict:
    """The global snapshot, with the process's peak RSS published first.

    ``process.max_rss_bytes`` is a required budget in
    ``benchmarks/budgets.json``.  On Linux it is ``VmHWM`` from
    ``/proc/self/status``: ``ru_maxrss`` there carries over the peak of
    the process that forked this one.  Elsewhere it is ``ru_maxrss``,
    in bytes on macOS and KiB on other systems.
    """
    obs.gauge("process.max_rss_bytes", float(_peak_rss_bytes()))
    return obs.snapshot()


def _peak_rss_bytes() -> int:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # "VmHWM:  1234 kB"
    except OSError:
        pass
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def _export_snapshot(snap: dict, out_path: Optional[str]) -> None:
    """Print the profile snapshot as JSON after a banner.

    Also writes it to ``out_path`` when given: ``.csv`` suffix selects
    CSV, anything else JSON.
    """
    print("=== observability ===")
    print(obs.to_json(snap))
    if out_path:
        target = Path(out_path)
        if target.suffix == ".csv":
            obs.to_csv(snap, target)
        else:
            obs.to_json(snap, target)
        print(f"[observability snapshot written to {target}]")


def _open_store(args):
    """The artifact store named by ``--store``, or ``None``."""
    if not getattr(args, "store", None):
        return None
    from repro.store import ArtifactStore

    return ArtifactStore(args.store)


def _csv_dir(args) -> Optional[Path]:
    """The ``--csv`` export directory, created on demand."""
    if not getattr(args, "csv", None):
        return None
    target = Path(args.csv)
    target.mkdir(parents=True, exist_ok=True)
    return target


def _export_rows(result, name: str, csv_dir: Optional[Path]) -> None:
    if csv_dir is not None:
        target = result_to_csv(result, csv_dir / f"{name}.csv")
        print(f"[rows exported to {target}]")


def _cmd_list(args) -> int:
    """``list``: every registered experiment."""
    import fnmatch

    names = registry.names()
    if args.family:
        names = [n for n in names if fnmatch.fnmatchcase(n, args.family)]
        if not names:
            print(
                f"no experiment matches family {args.family!r}; "
                "try 'list' without --family",
                file=sys.stderr,
            )
            return 2
    if args.long:
        width = max(len(n) for n in names)
        for name in names:
            print(f"{name:<{width}}  {registry.get(name).title}")
    else:
        for name in names:
            print(name)
    return 0


def _cmd_describe(args) -> int:
    """``describe``: one experiment's schema and defaults."""
    try:
        spec = registry.get(args.experiment)
    except ConfigurationError:
        print(
            f"unknown experiment {args.experiment!r}; try 'list'",
            file=sys.stderr,
        )
        return 2
    print(f"name:        {spec.name}")
    print(f"title:       {spec.title}")
    print(f"module:      {spec.module}")
    if spec.result_type is not None:
        print(f"result:      {spec.result_type.__name__}")
    print(f"fingerprint: {spec.fingerprint()}")
    if spec.store_aware:
        print("store-aware: consumes sibling artifacts when --store is given")
    if not spec.params:
        print("parameters:  (none)")
        return 0
    print("parameters:")
    for p in spec.params:
        quick = "" if p.quick is registry.UNSET else f"  [quick: {p.quick!r}]"
        print(f"  {p.name} ({p.kind}) = {p.default!r}{quick}")
        if p.help:
            print(f"      {p.help}")
    return 0


def _cmd_run(args) -> int:
    """``run``: one experiment, or ``all`` of them, as a serial batch."""
    if args.experiment == "all":
        names = registry.names()
    elif args.experiment in registry.MODULE_OF:
        names = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; try 'list'",
            file=sys.stderr,
        )
        return 2
    if args.params and len(names) > 1:
        print("--params requires a single experiment, not 'all'", file=sys.stderr)
        return 2

    from repro.store.batch import BatchCell

    cells = []
    for name in names:
        spec = registry.get(name)
        try:
            overrides = spec.parse_overrides(args.params or [])
            params = spec.resolve(overrides, quick=args.quick)
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        cells.append(BatchCell(name, params))
    return _run_cells(args, cells)


def _cmd_batch(args) -> int:
    """``batch``: a set of cells through the store-backed runner."""
    names = args.experiments or registry.names()
    unknown = [n for n in names if n not in registry.MODULE_OF]
    if unknown:
        print(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            "try 'list'",
            file=sys.stderr,
        )
        return 2

    from repro.store.batch import BatchCell

    cells = [
        BatchCell(name, registry.get(name).resolve(quick=args.quick))
        for name in names
    ]
    return _run_cells(args, cells)


def _run_cells(args, cells) -> int:
    """Run ``cells`` through :class:`repro.store.BatchRunner` and report.

    One status line per cell (a failed cell's traceback under it), its
    table when ``args.tables`` is set, then the ``[batch]`` footer and,
    with a store, the ``[store]`` counters.  Exits 1 when any cell
    failed, 3 when ``--expect-cached`` finds a cell that was not served
    from the store.
    """
    if args.profile:
        obs.enable()
    store = _open_store(args)
    csv_dir = _csv_dir(args)

    from repro.perf.sweep import SweepRunner
    from repro.store.batch import BatchRunner

    runner = BatchRunner(store=store, sweep=SweepRunner(args.workers))
    started = time.perf_counter()
    outcomes = runner.run(cells, force=args.force)
    elapsed = time.perf_counter() - started

    for o in outcomes:
        status = "cached" if o.cached else ("ran" if o.ok else "FAILED")
        line = f"{o.cell.experiment:<12} {status:<7} {o.seconds:8.2f} s"
        if o.error:
            line += f"  {o.error}"
        print(line)
        if o.trace:
            print(o.trace, end="")
        if o.ok and args.tables:
            print(o.result.table())
            print()
        if o.ok:
            _export_rows(o.result, o.cell.experiment, csv_dir)
    cached = sum(o.cached for o in outcomes)
    executed = sum(o.ok and not o.cached for o in outcomes)
    failed = sum(not o.ok for o in outcomes)
    print(
        f"[batch] {len(outcomes)} cells: {cached} cached, "
        f"{executed} executed, {failed} failed in {elapsed:.1f} s"
    )
    if store is not None:
        stats = ", ".join(f"{k}={v}" for k, v in store.counters.items())
        print(f"[store] {stats}")
    if args.profile:
        _export_snapshot(_profile_snapshot(), args.profile_out)
    if failed:
        return 1
    if args.expect_cached and cached != len(outcomes):
        print(
            f"--expect-cached: only {cached}/{len(outcomes)} cells were "
            "served from the store",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_obs_watch(args) -> int:
    """``obs watch``: evaluate budgets against an exported snapshot.

    ``--snapshot PATH`` is a JSON snapshot in the ``--profile-out``
    format.  Exits 1 on a hard violation, 2 when the budgets or the
    snapshot cannot be read.
    """
    import json

    from repro.obs import watch

    try:
        budgets = watch.load_budgets(args.budgets)
        snap = json.loads(Path(args.snapshot).read_text())
    except (ConfigurationError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    verdicts = watch.evaluate(budgets, snap)
    print(watch.render_verdicts(verdicts), end="")
    return 1 if watch.violations(verdicts) else 0


def _cmd_lint(args) -> int:
    """``lint``: the project-specific static analysis pass."""
    from repro import lint
    from repro.lint.engine import iter_python_files
    from repro.lint.rules import metric_usage

    paths = args.paths or ["src"]
    select = args.select.split(",") if args.select else None
    if select is not None:
        unknown = sorted(set(select) - lint.all_codes())
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    if args.emit_manifest:
        import ast as ast_mod

        names: set[str] = set()
        prefixes: set[str] = set()
        for f in iter_python_files(paths):
            file_names, file_prefixes = metric_usage(
                ast_mod.parse(f.read_text(), filename=str(f))
            )
            names |= file_names
            prefixes |= file_prefixes
        print("# Metric-name manifest (generated by "
              "`darksilicon lint --emit-manifest`, then curated).")
        print("# One name per line; a trailing `*` is a prefix wildcard.")
        for name in sorted(names):
            print(name)
        for prefix in sorted(prefixes):
            print(f"{prefix}*")
        return 0

    manifest = None
    if args.manifest and Path(args.manifest).exists():
        manifest = lint.MetricManifest.load(args.manifest)
    elif args.manifest and args.manifest != str(Path("docs") / "metrics.txt"):
        print(f"no metric manifest at {args.manifest}", file=sys.stderr)
        return 2

    if args.prune_manifest:
        if manifest is None:
            print("no metric manifest to prune", file=sys.stderr)
            return 2
        report = lint.lint_paths(
            paths,
            manifest=manifest,
            select=["DS302"],
            stale_manifest=True,
        )
        stale = [
            (f.message.split("'")[1], f.line)
            for f in report.findings
            if f.code == "DS302"
        ]
        removed = lint.prune_manifest(args.manifest, stale)
        print(f"[manifest: pruned {removed} stale entr(y/ies) "
              f"from {args.manifest}]")
        return 0

    report = lint.lint_paths(paths, manifest=manifest, select=select)
    if args.format == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def _cmd_report(args) -> int:
    """``report``: render the markdown performance dashboard."""
    from repro import report

    out = report.generate(
        args.snapshot,
        store_root=args.store,
        out_path=args.out,
        top=args.top,
        recent=args.recent,
    )
    print(f"[report written to {out}]")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick",
        action="store_true",
        help="apply the schema's quick-mode parameter values "
        "(shortened transients, smaller job streams)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also export each experiment's rows to DIR/<name>.csv",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="serve results from (and persist them to) a "
        "content-addressed artifact store rooted at DIR",
    )
    parser.add_argument(
        "--thermal-backend",
        choices=backend_names(),
        default=None,
        metavar="NAME",
        help="solver backend for every thermal factorisation "
        f"({', '.join(backend_names())}; default: "
        f"{default_backend_name()})",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="bypass the store and overwrite its artifacts",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable the observability registry and print its JSON "
        "snapshot after the tables",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        help="write the observability snapshot to PATH (.csv for CSV, "
        "anything else for JSON); implies --profile",
    )


def build_parser() -> argparse.ArgumentParser:
    """The darksilicon argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="darksilicon",
        description="Regenerate figures of 'New Trends in Dark Silicon' "
        "(DAC 2015) through the experiment registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one experiment (or 'all') and print its table"
    )
    p_run.add_argument(
        "experiment",
        help="experiment name (see 'list') or 'all'",
    )
    p_run.add_argument(
        "--params",
        metavar="KEY=VALUE",
        nargs="+",
        help="schema-validated parameter overrides "
        "(e.g. --params duration=1.5 n_instances=6)",
    )
    _add_common(p_run)

    p_batch = sub.add_parser(
        "batch",
        help="run a set of experiments through the store-backed "
        "batch runner",
    )
    p_batch.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (default: every registered experiment)",
    )
    p_batch.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes for cold cells (default: serial)",
    )
    p_batch.add_argument(
        "--tables",
        action="store_true",
        help="print each cell's full table, not just its status line",
    )
    p_batch.add_argument(
        "--expect-cached",
        action="store_true",
        help="exit 3 unless every cell was served from the store "
        "(cache-warmness assertion for CI)",
    )
    _add_common(p_batch)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.add_argument(
        "--long", action="store_true", help="include one-line titles"
    )
    p_list.add_argument(
        "--family",
        metavar="PATTERN",
        help="only experiments matching the glob PATTERN "
        "(e.g. --family 'ext*' or --family 'fig1?')",
    )

    p_desc = sub.add_parser(
        "describe", help="show one experiment's parameter schema"
    )
    p_desc.add_argument("experiment", help="experiment name")

    p_obs = sub.add_parser(
        "obs", help="watch budgets against an exported profile snapshot"
    )
    p_obs.add_argument(
        "action",
        choices=("watch",),
        help="watch: evaluate --budgets against --snapshot",
    )
    p_obs.add_argument(
        "--snapshot",
        metavar="PATH",
        required=True,
        help="JSON snapshot exported by --profile-out",
    )
    p_obs.add_argument(
        "--budgets",
        metavar="PATH",
        default=str(Path("benchmarks") / "budgets.json"),
        help="budgets file (default: benchmarks/budgets.json)",
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the project-specific static analysis pass "
        "(DS rules; see docs/linting.md)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p_lint.add_argument(
        "--prune-manifest",
        action="store_true",
        help="rewrite the metric manifest dropping entries DS302 "
        "reports as stale, then exit",
    )
    p_lint.add_argument(
        "--manifest",
        metavar="PATH",
        default=str(Path("docs") / "metrics.txt"),
        help="metric-name manifest for DS301 "
        "(default: docs/metrics.txt, grammar-only when absent)",
    )
    p_lint.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated DS codes to run (default: all)",
    )
    p_lint.add_argument(
        "--emit-manifest",
        action="store_true",
        help="print the statically discovered metric names as manifest "
        "lines and exit (seed for docs/metrics.txt)",
    )

    p_report = sub.add_parser(
        "report",
        help="render an obs snapshot + the store's runs.jsonl ledger "
        "into a markdown performance dashboard",
    )
    p_report.add_argument(
        "--snapshot",
        metavar="PATH",
        help="obs snapshot exported by --profile-out whose spans and "
        "histograms feed the hottest-spans and percentile sections",
    )
    p_report.add_argument(
        "--store",
        metavar="DIR",
        help="artifact-store root whose runs.jsonl ledger feeds the "
        "store-activity and recent-runs sections",
    )
    p_report.add_argument(
        "--out",
        metavar="PATH",
        default=str(Path("reports") / "performance.md"),
        help="where to write the report (default: reports/performance.md)",
    )
    p_report.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        metavar="N",
        help="hottest spans to show (default: 5)",
    )
    p_report.add_argument(
        "--recent",
        type=_positive_int,
        default=10,
        metavar="N",
        help="ledger lines to show (default: 10)",
    )

    p_lint.set_defaults(func=_cmd_lint)
    # ``run`` is a serial batch that always prints its tables.
    p_run.set_defaults(
        func=_cmd_run, workers=None, tables=True, expect_cached=False
    )
    p_batch.set_defaults(func=_cmd_batch)
    p_list.set_defaults(func=_cmd_list)
    p_desc.set_defaults(func=_cmd_describe)
    p_obs.set_defaults(func=_cmd_obs_watch)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Legacy spellings stay valid: a leading experiment name (or ``all``)
    is treated as ``run <name>``, so ``darksilicon fig5 --quick`` keeps
    working next to ``darksilicon run fig5 --quick``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {"run", "batch", "list", "describe", "obs", "report", "lint"}
    if argv and not argv[0].startswith("-") and argv[0] not in commands:
        argv = ["run", *argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile_out", None):
        args.profile = True
    if getattr(args, "thermal_backend", None):
        # Both the in-process default and the environment: spawned
        # worker processes re-read the variable on interpreter start.
        set_default_backend(args.thermal_backend)
        os.environ[BACKEND_ENV_VAR] = args.thermal_backend
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
