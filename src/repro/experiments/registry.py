"""Declarative experiment registry: specs, parameter schemas, dispatch.

Every experiment module under :mod:`repro.experiments` registers one
:class:`ExperimentSpec` when it is imported — its CLI name, a typed
parameter schema (defaults and quick-mode overrides) and the ``run()``
callable.  The modules are not imported with the package: :func:`get`
imports only the looked-up experiment's module (:data:`MODULE_OF`),
the first listing (:func:`names`, :func:`all_specs`) loads every
module in :data:`MODULES` once, and listings give the specs in that
display order whatever was imported before.  A run that never
consults the registry never pays for the experiment modules' imports.

The registry turns the experiments into first-class, addressable units
of work:

* the CLI dispatches ``run``/``batch``/``list``/``describe`` through it
  instead of a hard-coded dict,
* the artifact store (:mod:`repro.store`) derives cache keys from
  :meth:`ExperimentSpec.canonical_params` and
  :meth:`ExperimentSpec.fingerprint`,
* the batch runner ships ``(experiment, params)`` cells to worker
  processes by name, re-resolving the spec on the other side.

Only JSON-representable knobs appear in a schema; programmatic-only
arguments (prebuilt ``Chip`` objects, ``SweepRunner`` instances) stay
as plain keyword arguments on the module ``run()`` functions and never
participate in cache keys.

``tests/test_registry.py`` asserts completeness: every module in the
package is listed in :data:`MODULES` and registers exactly one spec.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.io import PAYLOAD_SCHEMA_VERSION


class _Unset:
    """Sentinel for 'no quick-mode override'."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNSET"


UNSET = _Unset()

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"not a finite number: {text!r}")
    return value


def _reject_constant(name: str) -> Any:
    raise ConfigurationError(f"not a finite number: {name}")


def _parse_json(text: str) -> Any:
    # NaN and +-Infinity are not JSON; json.loads takes them by default.
    return json.loads(text, parse_constant=_reject_constant)


#: Item type of a ``json`` default -> the item types a parsed value may hold.
_ITEM_TYPES: dict[type, tuple[type, ...]] = {
    int: (int,),
    float: (int, float),
    str: (str,),
}


def _item_type(default: Any) -> Optional[type]:
    """The one scalar type of a non-empty sequence default, else ``None``."""
    if not isinstance(default, (list, tuple)) or not default:
        return None
    kinds = {type(item) for item in default}
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    return kind if kind in _ITEM_TYPES else None


#: Parameter kinds and their CLI-string coercions.
_PARSERS: dict[str, Callable[[str], Any]] = {
    "str": str,
    "int": int,
    "float": _parse_float,
    "bool": _parse_bool,
    "json": _parse_json,
}


@dataclass(frozen=True)
class Param:
    """One experiment parameter.

    Attributes:
        name: canonical keyword passed to the runner.
        kind: ``str`` / ``int`` / ``float`` / ``bool`` / ``json`` —
            drives CLI ``key=value`` coercion (``json`` covers
            sequences, mappings and nullable values).
        default: full-fidelity default value.
        quick: value substituted under ``--quick`` (UNSET: same as
            default).
        help: one-line description for ``describe``.
    """

    name: str
    kind: str
    default: Any
    quick: Any = UNSET
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _PARSERS:
            raise ConfigurationError(
                f"unknown parameter kind {self.kind!r} for {self.name!r}"
            )

    def parse(self, text: str) -> Any:
        """Coerce a CLI ``key=value`` string by this parameter's kind.

        A ``json`` value whose default is a non-empty sequence of one
        scalar type must be a list of that type (ints also pass where
        the default holds floats; bools never pass as ints).
        """
        try:
            value = _PARSERS[self.kind](text)
        except (ValueError, json.JSONDecodeError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"cannot parse {text!r} as {self.kind} for parameter "
                f"{self.name!r}"
            ) from exc
        kind = _item_type(self.default) if self.kind == "json" else None
        if kind is not None and not (
            isinstance(value, list)
            and all(type(item) in _ITEM_TYPES[kind] for item in value)
        ):
            raise ConfigurationError(
                f"cannot parse {text!r} as a list of {kind.__name__} for "
                f"parameter {self.name!r}"
            )
        return value


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: name, schema, runner, result type.

    Attributes:
        name: CLI name (``fig1`` .. ``fig14``, ``runtime``, ...).
        title: one-line human description.
        module: dotted module path (``repro.experiments.fig10_tsp``).
        runner: the module's ``run()`` callable; invoked with the
            resolved parameters as keywords.
        params: the typed parameter schema.
        result_type: class of the returned result (payload-serialisable).
        store_aware: True when the runner accepts ``store=`` / ``force=``
            keywords to serve sub-results from an artifact store
            (``summary`` composes sibling experiments this way).
    """

    name: str
    title: str
    module: str
    runner: Callable[..., Any]
    params: tuple[Param, ...] = ()
    result_type: Optional[type] = None
    store_aware: bool = False

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for p in self.params:
            if p.name in seen:
                raise ConfigurationError(
                    f"experiment {self.name!r}: duplicate parameter "
                    f"{p.name!r}"
                )
            seen.add(p.name)

    def param(self, name: str) -> Param:
        """Look a parameter up by name.

        Raises:
            ConfigurationError: on unknown names.
        """
        for p in self.params:
            if name == p.name:
                return p
        known = ", ".join(p.name for p in self.params) or "(none)"
        raise ConfigurationError(
            f"experiment {self.name!r} has no parameter {name!r}; "
            f"known: {known}"
        )

    def defaults(self, quick: bool = False) -> dict[str, Any]:
        """The schema's default parameter values.

        Args:
            quick: substitute quick-mode overrides where declared.
        """
        out = {}
        for p in self.params:
            value = p.default
            if quick and not isinstance(p.quick, _Unset):
                value = p.quick
            out[p.name] = value
        return out

    def resolve(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        quick: bool = False,
    ) -> dict[str, Any]:
        """Full parameter dict: defaults, quick overrides, then user ones.

        Raises:
            ConfigurationError: on unknown override names.
        """
        params = self.defaults(quick=quick)
        for key, value in (overrides or {}).items():
            params[self.param(key).name] = value
        return params

    def parse_overrides(self, pairs: Sequence[str]) -> dict[str, Any]:
        """Parse CLI ``key=value`` strings into typed overrides.

        Raises:
            ConfigurationError: on missing ``=`` or unknown keys.
        """
        out: dict[str, Any] = {}
        for pair in pairs:
            key, sep, text = pair.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"parameter override {pair!r} is not of the form "
                    "key=value"
                )
            param = self.param(key.strip())
            out[param.name] = param.parse(text)
        return out

    def canonical_params(self, params: Mapping[str, Any]) -> str:
        """Deterministic JSON text of a resolved parameter dict.

        Sorted keys, tuples serialised as arrays — two parameter dicts
        describing the same cell produce identical text, which the
        artifact store hashes into the cache key.

        Raises:
            ConfigurationError: when a value is not JSON-representable.
        """
        try:
            return json.dumps(dict(params), sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"experiment {self.name!r}: parameters are not "
                f"JSON-representable: {params!r}"
            ) from exc

    def fingerprint(self) -> str:
        """Code fingerprint for store invalidation (first 16 hex chars).

        Hashes the experiment module's source together with the payload
        schema version: editing the module (or bumping the encoding)
        invalidates its cached artifacts.  Changes in deeper layers
        (thermal model, apps) are *not* tracked — clear the store or
        pass ``--force`` after such edits (see docs/experiments.md).
        """
        source = inspect.getsource(_import_module(self.module))
        digest = hashlib.sha256(
            f"schema={PAYLOAD_SCHEMA_VERSION}\n{source}".encode()
        )
        return digest.hexdigest()[:16]

    def run(
        self,
        params: Optional[Mapping[str, Any]] = None,
        store: Any = None,
        force: bool = False,
    ) -> Any:
        """Invoke the runner with resolved parameters.

        Args:
            params: a fully resolved dict (see :meth:`resolve`);
                ``None`` uses the schema defaults.
            store / force: forwarded to store-aware runners only.
        """
        kwargs = dict(params if params is not None else self.defaults())
        if self.store_aware:
            kwargs["store"] = store
            kwargs["force"] = force
        return self.runner(**kwargs)


def _import_module(name: str):
    import importlib

    return importlib.import_module(name)


#: Experiment name -> its module under :mod:`repro.experiments`, in
#: display order: the order of ``list``, ``run all`` and ``batch``.
#: :func:`get` imports only the module of the name it looks up.
MODULE_OF: dict[str, str] = {
    "fig1": "fig01_scaling",
    "fig2": "fig02_vf_curve",
    "fig3": "fig03_power_fit",
    "fig4": "fig04_speedup",
    "fig5": "fig05_tdp_dark_silicon",
    "fig6": "fig06_temperature_constraint",
    "fig7": "fig07_dvfs",
    "fig8": "fig08_patterning",
    "fig9": "fig09_dsrem",
    "fig10": "fig10_tsp",
    "fig11": "fig11_boosting_transient",
    "fig12": "fig12_boosting_sweep",
    "fig13": "fig13_boosting_apps",
    "fig14": "fig14_ntc",
    "runtime": "ext_runtime",
    "projection": "ext_projection",
    "sensitivity": "ext_sensitivity",
    "ext_3d_amdahl": "ext_3d_amdahl",
    "ext_3d_tsp": "ext_3d_tsp",
    "summary": "summary",
}

#: The experiment modules, in display order.
MODULES: tuple[str, ...] = tuple(MODULE_OF.values())

#: Process-global registry.  Modules register into it when imported, in
#: whatever order that happens; lookups sort by :data:`MODULES`.
_REGISTRY: dict[str, ExperimentSpec] = {}

_DISPLAY_RANK = {f"repro.experiments.{m}": i for i, m in enumerate(MODULES)}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the global registry; returns it for module export.

    Raises:
        ConfigurationError: when the name is already taken by a
            different module.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.module != spec.module:
        raise ConfigurationError(
            f"experiment name {spec.name!r} registered twice "
            f"({existing.module} and {spec.module})"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ExperimentSpec:
    """The spec registered under ``name``.

    Imports only the module :data:`MODULE_OF` names for it, so a batch
    worker running one cell loads one experiment module.

    Raises:
        ConfigurationError: when no such experiment exists.
    """
    module = MODULE_OF.get(name)
    if module is not None:
        _import_module(f"repro.experiments.{module}")
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {', '.join(names())}"
        ) from None


def names() -> list[str]:
    """Registered experiment names, in display (:data:`MODULES`) order."""
    return [spec.name for spec in all_specs()]


def all_specs() -> list[ExperimentSpec]:
    """Every registered spec, in display (:data:`MODULES`) order.

    A module imported before the first lookup (``from repro.experiments
    import ext_projection``) registered ahead of its display position,
    so the order comes from :data:`MODULES`, not from registration.
    """
    _ensure_loaded()
    return sorted(
        _REGISTRY.values(), key=lambda spec: _DISPLAY_RANK[spec.module]
    )


@lru_cache(maxsize=None)
def _ensure_loaded() -> None:
    """Import every experiment module, once per process."""
    for module in MODULES:
        _import_module(f"repro.experiments.{module}")


#: Shared schema fragment: the boosting experiments standardize on
#: ``duration`` for their transient length.
def duration_param(default: float, quick: float, help: str) -> Param:
    """A standardized transient-duration parameter."""
    return Param(
        name="duration", kind="float", default=default, quick=quick, help=help
    )
