"""Per-layer attribution, recorded from outside the program.

:func:`install` wraps each layer's entry points — public functions and
methods of the program's modules — in the running process, and
:meth:`Installed.remove` puts the originals back; nothing under ``src/``
changes.  For every layer ``L`` the :class:`Tracer` records

* ``L.calls``: entries into ``L`` from outside ``L`` (a call from inside
  ``L`` to another of its entry points is not counted again), and
* ``L.self_s``: time inside ``L`` minus the time covered by nested
  wrapped layers.

It keeps one aggregate per (caller layer, layer) edge in memory rather
than one span per call, so a million calls cost a dict update each.

An entry point is named ``module:function`` or ``module:Class.method``.
``method`` may be an ``fnmatch`` pattern over the class's public plain
methods, ``Class+`` also covers every subclass, and ``*.method`` covers
every class defined in the module.  A name that no longer resolves is
reported, and its layer's metrics read ``not measured`` instead of 0.
"""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterable, Optional

import numpy as np

#: Layer name -> entry points.  The layer names are the program's module names.
LAYERS: dict[str, tuple[str, ...]] = {
    "power": (
        "repro.apps.profile:AppProfile.core_power",
        "repro.apps.profile:AppProfile.power_model",
        "repro.boosting.simulation:PlacedWorkload.total_powers",
        "repro.boosting.simulation:PlacedWorkload.instance_total_powers",
    ),
    "mapping": (
        "repro.mapping.dsrem:ds_rem",
        "repro.mapping.tdpmap:tdp_map",
        "repro.core.estimator:map_workload",
        "repro.mapping.base:Placer+.place",
    ),
    "tsp": (
        "repro.core.tsp:ThermalSafePower.*",
        "repro.perf.batched:BatchedSteadyState.tsp_table",
        "repro.perf.batched:BatchedSteadyState.tsp_for_count",
    ),
    "perf.batched": (
        "repro.perf.batched:BatchedSteadyState.temperatures",
        "repro.perf.batched:BatchedSteadyState.peak_temperature",
        "repro.perf.batched:BatchedSteadyState.peak_temperatures",
    ),
    "thermal.steady": (
        "repro.thermal.model:ThermalModel.steady_state",
        "repro.thermal.model:ThermalModel.core_steady_state*",
        "repro.thermal.steady_state:SteadyStateSolver.*",
    ),
    "thermal.transient": (
        "repro.thermal.transient:TransientSimulator.step",
        "repro.thermal.transient:TransientSimulator.warm_start",
        "repro.thermal.transient:TransientSimulator.simulate",
    ),
    "thermal.solve": ("repro.thermal.backends:*.solve",),
    "thermal.factorize": ("repro.thermal.backends:*.factorize",),
    "thermal.build": (
        "repro.thermal.builder:build_thermal_model",
        "repro.thermal.model:ThermalModel.influence_matrix",
    ),
    "boosting": (
        "repro.boosting.simulation:run_boosting",
        "repro.boosting.simulation:run_constant",
        "repro.boosting.simulation:run_per_instance_boosting",
        "repro.boosting.constant:best_constant_frequency",
        "repro.boosting.simulation:place_workload",
    ),
    "runtime": ("repro.runtime.simulator:OnlineSimulator.run",),
    "store": (
        "repro.store.artifacts:ArtifactStore.get*",
        "repro.store.artifacts:ArtifactStore.put*",
        "repro.io:encode_value",
        "repro.io:decode_value",
    ),
    "experiments": ("repro.experiments.registry:ExperimentSpec.run",),
}

#: Metrics derived from the arguments of particular entry points, and the
#: layer each depends on.
DERIVED = {
    "thermal.solve.rhs_cols": ("thermal.solve", "count"),
    "thermal.solve.cols_per_call": ("thermal.solve", "cols/call"),
    "perf.batched.peak_repeat_frac": ("perf.batched", "ratio"),
}


def _is_protocol(cls: type) -> bool:
    return bool(getattr(cls, "_is_protocol", False))


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out += [c for c in _subclasses(sub) if c not in out]
    return out


@dataclass
class _Target:
    """One attribute to replace: ``owner.name`` currently holds ``raw``."""

    owner: Any
    name: str
    raw: Any


def resolve(spec: str) -> list[_Target]:
    """Every attribute an entry-point name covers; empty when it is gone."""
    module_name, _, path = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if "." not in path:
        fn = vars(module).get(path)
        return [_Target(module, path, fn)] if inspect.isfunction(fn) else []
    class_part, _, pattern = path.rpartition(".")
    if class_part == "*":
        classes = [
            c for c in vars(module).values()
            if isinstance(c, type) and c.__module__ == module.__name__ and not _is_protocol(c)
        ]
    else:
        cls = vars(module).get(class_part.rstrip("+"))
        if not isinstance(cls, type):
            return []
        classes = _subclasses(cls) if class_part.endswith("+") else [cls]
    return [
        _Target(cls, name, raw)
        for cls in classes
        for name, raw in vars(cls).items()
        if not name.startswith("_")
        and fnmatch.fnmatchcase(name, pattern)
        and inspect.isfunction(raw)
        and not getattr(raw, "__isabstractmethod__", False)
    ]


class Tracer:
    """Aggregates layer entries and self time per (caller layer, layer) edge.

    Args:
        clock: monotonic seconds; injectable so tests can drive time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [layer, seconds covered by nested layers]
        #: (caller layer or None, layer) -> [calls, inclusive s, self s]
        self.edges: dict[tuple[Optional[str], str], list] = {}
        self.rhs_cols = 0
        self.peak_queries = 0
        self.peak_repeats = 0
        self._peaks_seen: set = set()

    def wrap(self, layer: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """``fn`` counted and timed as an entry into ``layer``."""
        stack, clock, edges = self._stack, self._clock, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                caller = None
                if stack:
                    stack[-1][1] += elapsed
                    caller = stack[-1][0]
                edge = edges.get((caller, layer))
                if edge is None:
                    edges[(caller, layer)] = [1, elapsed, elapsed - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += elapsed - frame[1]

        return traced

    def observe_solve(self, args: tuple) -> None:
        """``Factorization.solve(self, rhs)``: count right-hand-side columns."""
        rhs = args[1]
        self.rhs_cols += rhs.shape[1] if np.ndim(rhs) == 2 else 1

    def observe_peak(self, args: tuple) -> None:
        """``peak_temperature(self, powers)``: was this exact input seen before?"""
        digest = hashlib.blake2b(
            np.asarray(args[1], dtype=float).tobytes(), digest_size=16
        ).digest()
        key = (id(args[0]), digest)
        self.peak_queries += 1
        if key in self._peaks_seen:
            self.peak_repeats += 1
        else:
            self._peaks_seen.add(key)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds), summed over its incoming edges."""
        totals: dict[str, list] = {}
        for (_, layer), (calls, _, self_s) in self.edges.items():
            t = totals.setdefault(layer, [0, 0.0])
            t[0] += calls
            t[1] += self_s
        return {layer: (t[0], t[1]) for layer, t in totals.items()}

    def report(
        self, wall_s: float, missing: dict[str, list[str]], layers: Iterable[str] = LAYERS
    ) -> dict[str, dict]:
        """Every layer and derived metric as ``{"value", "unit"}``.

        A layer with a missing entry point, and each metric derived from
        it, reads ``{"value": None, "not_measured": "missing: ..."}``.
        """
        totals = self.layer_totals()
        out: dict[str, dict] = {}

        def not_measured(unit: str, why: str) -> dict:
            return {"value": None, "unit": unit, "not_measured": why}

        for layer in layers:
            calls, self_s = totals.get(layer, (0, 0.0))
            if layer in missing:
                why = "missing: " + ", ".join(missing[layer])
                out[f"{layer}.calls"] = not_measured("count", why)
                out[f"{layer}.self_s"] = not_measured("s", why)
            else:
                out[f"{layer}.calls"] = {"value": calls, "unit": "count"}
                out[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        solves = totals.get("thermal.solve", (0, 0.0))[0]
        derived = {
            "thermal.solve.rhs_cols": self.rhs_cols,
            "thermal.solve.cols_per_call": self.rhs_cols / solves if solves else None,
            "perf.batched.peak_repeat_frac": (
                self.peak_repeats / self.peak_queries if self.peak_queries else None
            ),
        }
        for name, value in derived.items():
            layer, unit = DERIVED[name]
            if layer in missing:
                out[name] = not_measured(unit, "missing: " + ", ".join(missing[layer]))
            elif value is None:
                out[name] = not_measured(unit, "no calls in this workload")
            else:
                out[name] = {"value": value, "unit": unit}
        attributed = sum(self_s for _, self_s in totals.values())
        out["attributed_frac"] = {"value": attributed / wall_s, "unit": "ratio"}
        out["unattributed_s"] = {"value": wall_s - attributed, "unit": "s"}
        return out


@dataclass
class Installed:
    """The wrappers :func:`install` put in place, and the names it missed."""

    patches: list[tuple[Any, str, Any]] = field(default_factory=list)
    missing: dict[str, list[str]] = field(default_factory=dict)

    def remove(self) -> None:
        """Put every original back."""
        for owner, name, raw in reversed(self.patches):
            setattr(owner, name, raw)
        self.patches.clear()


def install(
    tracer: Tracer,
    layers: dict[str, Iterable[str]] = LAYERS,
    namespaces: Iterable[ModuleType] = (),
) -> Installed:
    """Wrap every entry point of ``layers`` for ``tracer``.

    A module-level function is replaced in its own module and wherever
    a ``repro`` module or one of ``namespaces`` imported it by name.
    """
    installed = Installed()
    extra = list(namespaces)
    for layer, specs in layers.items():
        for spec in specs:
            targets = resolve(spec)
            if not targets:
                installed.missing.setdefault(layer, []).append(spec)
            for t in targets:
                observe = None
                if layer == "thermal.solve":
                    observe = tracer.observe_solve
                elif layer == "perf.batched" and t.name == "peak_temperature":
                    observe = tracer.observe_peak
                wrapped = tracer.wrap(layer, t.raw, observe)
                if isinstance(t.owner, type):
                    owners = [(t.owner, t.name)]
                else:
                    modules = {id(m): m for m in [t.owner, *_program_modules(), *extra]}
                    owners = [
                        (module, name)
                        for module in modules.values()
                        for name, value in list(vars(module).items())
                        if value is t.raw
                    ]
                for owner, name in owners:
                    installed.patches.append((owner, name, t.raw))
                    setattr(owner, name, wrapped)
    return installed


def _program_modules() -> list[ModuleType]:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]
