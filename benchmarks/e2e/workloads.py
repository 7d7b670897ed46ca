"""The benchmark's four workloads: seeded inputs, the timed section, checked outputs.

Each workload turns the seed into plain inputs before the clock starts,
then runs a closed loop of calls into the program's public API in one
process: the next call starts when the previous one returns.  An *op* is
one checked output unit.  An exception inside an op is recorded against
that op and the loop goes on, so one failure does not hide the rest.

After the clock stops, each workload's ``describe`` reduces every op's
raw result to a JSON-able output, which the harness compares with the
stored reference, and checks invariants that hold for any seed.

Seeded inputs are *balanced*: every seed gives the same mix sizes, the
same instance counts and the same number of uses of each application;
only which applications meet varies.  The work per run then barely
depends on the seed, so the spread of the timings across seeds measures
the machine, not the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.apps.parsec import PARSEC_ORDER, app_by_name
from repro.apps.workload import Workload as AppWorkload
from repro.boosting.constant import best_constant_frequency
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import place_workload, run_boosting, run_constant
from repro.chip import Chip
from repro.core.dark_silicon import compare_tdp_vs_temperature
from repro.core.tsp import ThermalSafePower
from repro.experiments import registry
from repro.experiments.common import get_chip
from repro.mapping.dsrem import ds_rem
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.mapping.tdpmap import tdp_map
from repro.perf.sweep import SweepRunner
from repro.power.budget import PAPER_TDP_PESSIMISTIC
from repro.power.vf_curve import VFCurve
from repro.runtime import Job, OnlineSimulator, TdpFifoPolicy, TspAdaptivePolicy
from repro.store.artifacts import ArtifactStore
from repro.store.batch import BatchCell, BatchRunner
from repro.tech.library import node_by_name

#: Slack on "stays below T_DTM" checks, K (the program's own tolerance).
T_SLACK = 1e-6

#: boost_transients: instance counts of the six cases, and the case shape.
BOOST_COUNTS = (12, 12, 12, 24, 24, 24)
BOOST_NODE = "11nm"
BOOST_THREADS = 8
BOOST_DURATION_S = 5.0
BOOST_POWER_CAP_W = 500.0

#: steady_online: sizes per node, and the 3D stacks built inside the clock.
ONLINE_NODES = ("16nm", "11nm")
ONLINE_JOBS = 3000
ONLINE_INTERARRIVAL_S = 0.3
ONLINE_WORK = 400e9
TSP_QUERIES = 2000
STACK_LAYERS = (1, 2, 3, 4)
STACK_GRID = (10, 10)
STACK_BATCH = 256


class Failure:
    """An op that raised, or whose output broke an invariant."""

    def __init__(self, message: str) -> None:
        self.message = message

    def __repr__(self) -> str:
        return f"Failure({self.message!r})"


def attempt(results: dict, op_id: str, fn: Callable, *args, **kwargs) -> Any:
    """Run one op, storing its result (or its :class:`Failure`) under ``op_id``."""
    try:
        results[op_id] = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, the loop goes on
        results[op_id] = Failure(f"{type(exc).__name__}: {exc}")
    return results[op_id]


def summary(values) -> dict:
    """Compact, comparable digest of a long vector of floats."""
    v = np.asarray(values, dtype=float).ravel()
    return {
        "n": int(v.size),
        "sum": float(v.sum()),
        "min": float(v.min()),
        "max": float(v.max()),
        "head": [float(x) for x in v[:8]],
    }


# -- quick_batch ------------------------------------------------------


def quick_batch_inputs(seed: int) -> list:
    """Every registry cell at its quick parameters (the seed is not used)."""
    return [
        BatchCell(name, registry.get(name).resolve(quick=True))
        for name in registry.names()
    ]


def quick_batch_timed(cells: list, workdir: Path) -> dict:
    """A cold, serial batch over every cell into a fresh artifact store."""
    store = ArtifactStore(workdir / "store")
    outcomes = BatchRunner(store=store, sweep=SweepRunner()).run(cells)
    return {
        o.cell.experiment: o.result if o.ok else Failure(o.error)
        for o in outcomes
    }


# -- dsrem_mixes ------------------------------------------------------


def dsrem_inputs(seed: int) -> list[tuple[str, str]]:
    """Seven two-app mixes along a random cycle through the seven apps.

    Every app lands in exactly two mixes, so seeds differ in which apps
    share a mix, not in how often each app is mapped.  Mixes of three or
    four apps are left out: their DsRem cost varies up to 2x with the
    combination, which made the work per run depend on the seed.
    """
    rng = np.random.default_rng(seed)
    cycle = [PARSEC_ORDER[i] for i in rng.permutation(len(PARSEC_ORDER))]
    return [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]


def dsrem_timed(mixes: list, workdir: Path) -> dict:
    """TDPmap then DsRem for every mix on the 16 nm chip."""
    chip = get_chip("16nm")
    results: dict = {}
    for i, names in enumerate(mixes):
        apps = [app_by_name(n) for n in names]
        attempt(results, f"mix{i:02d}.tdp_map", tdp_map, chip, apps, PAPER_TDP_PESSIMISTIC)
        attempt(results, f"mix{i:02d}.ds_rem", ds_rem, chip, apps, PAPER_TDP_PESSIMISTIC)
    return results


def _mapping_output(result) -> dict:
    return {
        "placed": [
            [p.instance.app.name, p.instance.threads, p.instance.frequency, list(p.cores)]
            for p in result.placed
        ],
        "rejected": len(result.rejected),
        "peak": float(result.peak_temperature),
        "gips": float(result.gips),
        "power": float(result.total_power),
    }


def _mapping_problems(result, tdp: Optional[float]) -> list[str]:
    problems = []
    cores = [c for p in result.placed for c in p.cores]
    if len(cores) != len(set(cores)):
        problems.append("instances share cores")
    if any(len(p.cores) != p.instance.threads for p in result.placed):
        problems.append("an instance got a core count other than its threads")
    if tdp is None and result.peak_temperature > result.chip.t_dtm + T_SLACK:
        problems.append(f"peak {result.peak_temperature:.6f} degC above T_DTM")
    if tdp is not None and result.total_power > tdp + 1e-9:
        problems.append(f"total power {result.total_power:.6f} W above TDP {tdp} W")
    return problems


# -- boost_transients -------------------------------------------------


@dataclass(frozen=True)
class BoostCase:
    app: str
    n_instances: int


@dataclass(frozen=True)
class BoostedCase:
    placed: Any
    constant: Any
    boosting: Any


def boost_inputs(seed: int) -> list[BoostCase]:
    """Six (application, instance count) cases with six distinct apps."""
    rng = np.random.default_rng(seed)
    apps = [PARSEC_ORDER[i] for i in rng.permutation(len(PARSEC_ORDER))]
    counts = rng.permutation(np.asarray(BOOST_COUNTS))
    return [BoostCase(app, int(n)) for app, n in zip(apps, counts)]


def _boost_case(chip: Chip, case: BoostCase) -> BoostedCase:
    """Figure 13's recipe for one case: place, pick the constant level, boost."""
    workload = AppWorkload.replicate(
        app_by_name(case.app), case.n_instances, BOOST_THREADS, chip.node.f_max
    )
    placed = place_workload(chip, workload, placer=NeighbourhoodSpreadPlacer())
    const = best_constant_frequency(placed)
    controller = BoostingController(
        f_min=chip.node.f_min,
        f_max=VFCurve.for_node(chip.node).f_limit,
        step=chip.node.dvfs_step,
        threshold=chip.t_dtm,
        initial_frequency=const.frequency,
    )
    boost = run_boosting(
        placed,
        controller,
        duration=BOOST_DURATION_S,
        record_interval=BOOST_DURATION_S,
        warm_start_frequency=const.frequency,
        power_cap=BOOST_POWER_CAP_W,
    )
    return BoostedCase(placed, const, boost)


def boost_timed(cases: list, workdir: Path) -> dict:
    """Per case: a boosting simulation, then a constant-frequency one."""
    chip = get_chip(BOOST_NODE)
    results: dict = {}
    for i, case in enumerate(cases):
        boosted = attempt(results, f"case{i}.boosting", _boost_case, chip, case)
        if isinstance(boosted, Failure):
            results[f"case{i}.constant"] = Failure("not run: its boosting op failed")
            continue
        attempt(
            results,
            f"case{i}.constant",
            run_constant,
            boosted.placed,
            boosted.constant.frequency,
            BOOST_DURATION_S,
            record_interval=BOOST_DURATION_S,
        )
    return results


def _transient_output(run) -> list[float]:
    return [
        float(run.average_gips),
        float(run.average_power),
        float(run.max_power),
        float(run.max_temperature),
        float(run.energy),
    ]


# -- steady_online ----------------------------------------------------


@dataclass(frozen=True)
class NodeQueries:
    node: str
    jobs: tuple
    active_sets: tuple
    estimator_frequency: float


@dataclass(frozen=True)
class OnlineInputs:
    nodes: tuple
    stack_powers: tuple  # one (STACK_BATCH, cores) array per entry of STACK_LAYERS


def online_inputs(seed: int) -> OnlineInputs:
    rng = np.random.default_rng(seed)
    nodes = []
    for name in ONLINE_NODES:
        n_cores = get_chip(name).n_cores
        arrivals = np.cumsum(rng.exponential(ONLINE_INTERARRIVAL_S, ONLINE_JOBS))
        picks = rng.integers(len(PARSEC_ORDER), size=ONLINE_JOBS)
        jobs = tuple(
            Job(job_id=i, app=app_by_name(PARSEC_ORDER[k]), arrival=float(t), work=ONLINE_WORK)
            for i, (t, k) in enumerate(zip(arrivals, picks))
        )
        active_sets = tuple(
            np.sort(rng.choice(n_cores, size=int(m), replace=False))
            for m in rng.integers(1, n_cores + 1, size=TSP_QUERIES)
        )
        ladder = node_by_name(name).frequency_ladder()
        frequency = float(ladder[-1 - int(rng.integers(5))])
        nodes.append(NodeQueries(name, jobs, active_sets, frequency))
    rows, cols = STACK_GRID
    stack_powers = tuple(
        rng.uniform(0.0, 2.0, size=(STACK_BATCH, layers * rows * cols))
        for layers in STACK_LAYERS
    )
    return OnlineInputs(tuple(nodes), stack_powers)


def _tsp_queries(chip: Chip, active_sets) -> np.ndarray:
    tsp = ThermalSafePower(chip)
    return np.array([tsp.for_mapping(active) for active in active_sets])


def _estimator(chip: Chip, frequency: float) -> dict:
    return {
        name: compare_tdp_vs_temperature(
            chip, app_by_name(name), frequency, PAPER_TDP_PESSIMISTIC
        )
        for name in PARSEC_ORDER
    }


@dataclass(frozen=True)
class StackResult:
    chip: Chip
    table: dict
    peaks: np.ndarray


def _stack(layers: int, powers: np.ndarray) -> StackResult:
    rows, cols = STACK_GRID
    chip = Chip.stacked_grid(node_by_name("16nm"), rows, cols, layers)
    table = ThermalSafePower(chip).table()
    peaks = chip.engine.peak_temperatures(powers)
    return StackResult(chip, table, peaks)


def online_timed(inputs: OnlineInputs, workdir: Path) -> dict:
    """Runtime policies, TSP queries and estimator comparisons per node, then 3D stacks."""
    results: dict = {}
    for q in inputs.nodes:
        chip = get_chip(q.node)
        attempt(
            results, f"{q.node}.runtime.tdp_fifo",
            OnlineSimulator(chip, TdpFifoPolicy(tdp=PAPER_TDP_PESSIMISTIC)).run, q.jobs,
        )
        attempt(
            results, f"{q.node}.runtime.tsp_adaptive",
            OnlineSimulator(chip, TspAdaptivePolicy(ThermalSafePower(chip))).run, q.jobs,
        )
        attempt(results, f"{q.node}.tsp_queries", _tsp_queries, chip, q.active_sets)
        attempt(results, f"{q.node}.estimator", _estimator, chip, q.estimator_frequency)
    for layers, powers in zip(STACK_LAYERS, inputs.stack_powers):
        attempt(results, f"stack{layers}", _stack, layers, powers)
    return results


def _runtime_output(run) -> dict:
    return {
        "completed": len(run.records),
        "makespan": float(run.makespan),
        "energy": float(run.energy),
        "max_peak": float(run.max_peak_temperature),
        "core_seconds": float(run.core_seconds),
        "mean_response": float(run.mean_response_time),
    }


def _tsp_problems(chip: Chip, active_sets, budgets: np.ndarray) -> list[str]:
    """Check a sample of budgets with the full-network solver: peak == T_DTM."""
    problems = []
    for k in range(0, len(active_sets), max(1, len(active_sets) // 8)):
        powers = np.zeros(chip.n_cores)
        powers[active_sets[k]] = budgets[k]
        peak = float(chip.thermal.core_steady_state(powers).max())
        if abs(peak - chip.t_dtm) > T_SLACK:
            problems.append(f"query {k}: budget heats to {peak:.9f} degC, not T_DTM")
    return problems


# -- output reduction and invariants ----------------------------------
#
# Each workload's ``describe(inputs, op_id, raw)`` returns the op's
# JSON-able output and the invariants it broke; it runs after the clock.


def quick_batch_describe(cells, op_id: str, raw) -> tuple[Any, list[str]]:
    return raw.to_payload(), []


def dsrem_describe(mixes, op_id: str, raw) -> tuple[Any, list[str]]:
    tdp = PAPER_TDP_PESSIMISTIC if op_id.endswith(".tdp_map") else None
    return _mapping_output(raw), _mapping_problems(raw, tdp)


def boost_describe(cases, op_id: str, raw) -> tuple[Any, list[str]]:
    if op_id.endswith(".constant"):
        out = _transient_output(raw)
        return out, [] if all(map(math.isfinite, out)) else ["non-finite output"]
    c = raw.constant
    out = {
        "placement": [list(cores) for _, cores in raw.placed.placements],
        "constant": [float(c.frequency), float(c.gips), float(c.total_power), float(c.peak_temperature)],
        "boosting": _transient_output(raw.boosting),
    }
    problems = []
    if c.peak_temperature > raw.placed.chip.t_dtm + T_SLACK:
        problems.append("constant level runs above T_DTM")
    if not all(map(math.isfinite, out["boosting"])):
        problems.append("non-finite boosting output")
    return out, problems


def online_describe(inputs: OnlineInputs, op_id: str, raw) -> tuple[Any, list[str]]:
    if op_id.startswith("stack"):
        budgets = [raw.table[m] for m in sorted(raw.table)]
        problems = []
        if min(budgets) <= 0 or any(b < a - 1e-12 for a, b in zip(budgets[1:], budgets)):
            problems.append("TSP table is not positive and non-increasing")
        if not np.isfinite(raw.peaks).all() or raw.peaks.min() < raw.chip.ambient:
            problems.append("peak batch outside [ambient, inf)")
        return {"cores": raw.chip.n_cores, "tsp": summary(budgets), "peaks": summary(raw.peaks)}, problems
    node, kind = op_id.split(".", 1)[0], op_id.rsplit(".", 1)[-1]
    chip = get_chip(node)
    if kind in ("tdp_fifo", "tsp_adaptive"):
        out = _runtime_output(raw)
        problems = [] if out["completed"] == ONLINE_JOBS else ["not every job completed"]
        if kind == "tsp_adaptive" and out["max_peak"] > chip.t_dtm + T_SLACK:
            problems.append("TSP-adaptive runtime exceeded T_DTM")
        return out, problems
    if kind == "tsp_queries":
        queries = next(q for q in inputs.nodes if q.node == node)
        return summary(raw), _tsp_problems(chip, queries.active_sets, raw)
    # estimator: contiguous placement, so the core count pins every placement
    out, problems = {}, []
    for name, (under_tdp, under_temp) in raw.items():
        out[name] = [
            {k: v for k, v in _mapping_output(m).items() if k != "placed"}
            | {"active": m.active_cores}
            for m in (under_tdp, under_temp)
        ]
        problems += _mapping_problems(under_tdp, PAPER_TDP_PESSIMISTIC)
        problems += _mapping_problems(under_temp, None)
    return out, problems


# -- the table the harness reads --------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload.

    Attributes:
        name: the name ``--workload`` takes (``BENCHMARK.json`` says why
            each workload is in the benchmark).
        nodes: chips whose cold engine build is part of set-up.
        seeded: False when the seed does not change the inputs.
        inputs: seed -> inputs, built before the clock starts.
        timed: (inputs, work directory) -> {op id: raw result or Failure}.
        describe: (inputs, op id, raw result) -> (JSON-able output,
            broken invariants), called after the clock stops.
    """

    name: str
    nodes: tuple[str, ...]
    seeded: bool
    inputs: Callable[[int], Any]
    timed: Callable[[Any, Path], dict]
    describe: Callable[[Any, str, Any], tuple[Any, list[str]]]


WORKLOADS: dict[str, WorkloadSpec] = {
    w.name: w
    for w in (
        WorkloadSpec(
            "quick_batch",
            (),
            False,
            quick_batch_inputs,
            quick_batch_timed,
            quick_batch_describe,
        ),
        WorkloadSpec(
            "dsrem_mixes",
            ("16nm",),
            True,
            dsrem_inputs,
            dsrem_timed,
            dsrem_describe,
        ),
        WorkloadSpec(
            "boost_transients",
            (BOOST_NODE,),
            True,
            boost_inputs,
            boost_timed,
            boost_describe,
        ),
        WorkloadSpec(
            "steady_online",
            ONLINE_NODES,
            True,
            online_inputs,
            online_timed,
            online_describe,
        ),
    )
}
