"""Experiment-registry tests: completeness, schemas, dispatch."""

from __future__ import annotations

import inspect
import json
import pkgutil

import pytest

import repro.experiments
from repro.errors import ConfigurationError
from repro.experiments import registry
from repro.experiments.registry import UNSET, ExperimentSpec, Param, register

#: Package modules that are infrastructure, not experiments.
_NON_EXPERIMENT = {"__init__", "common", "registry"}


def _experiment_modules() -> list[str]:
    return sorted(
        info.name
        for info in pkgutil.iter_modules(repro.experiments.__path__)
        if info.name not in _NON_EXPERIMENT
    )


class TestCompleteness:
    def test_every_experiment_module_registers_a_spec(self):
        modules = _experiment_modules()
        registered = {spec.module for spec in registry.all_specs()}
        missing = [
            m for m in modules if f"repro.experiments.{m}" not in registered
        ]
        assert not missing, f"modules without a registered spec: {missing}"

    def test_registry_covers_exactly_the_package(self):
        assert len(registry.names()) == len(_experiment_modules()) == 20
        assert sorted(registry.MODULES) == _experiment_modules()

    def test_names_are_display_ordered(self):
        names = registry.names()
        assert names[0] == "fig1"
        assert names[:14] == [f"fig{i}" for i in range(1, 15)]
        assert names[-1] == "summary"

    def test_display_order_does_not_depend_on_import_history(
        self, fresh_python
    ):
        # Modules imported before the first lookup register first; the
        # lookup must still list every spec in MODULES order.
        code = (
            "import json, importlib\n"
            "import repro.experiments.ext_projection\n"
            "import repro.experiments.fig12_boosting_sweep\n"
            "from repro.experiments import registry\n"
            "names = registry.names()\n"
            "canonical = [importlib.import_module("
            "'repro.experiments.' + m).SPEC.name for m in registry.MODULES]\n"
            "print(json.dumps([names, canonical]))\n"
        )
        names, canonical = json.loads(fresh_python(code))
        assert names == canonical
        assert names[0] == "fig1" and names[15] == "projection"

    def test_module_map_agrees_with_every_spec(self):
        specs = registry.all_specs()
        assert list(registry.MODULE_OF) == [spec.name for spec in specs]
        for spec in specs:
            module = registry.MODULE_OF[spec.name]
            assert spec.module == f"repro.experiments.{module}"

    def test_get_imports_only_the_looked_up_module(self, fresh_python):
        code = (
            "import json, sys\n"
            "from repro.experiments import registry\n"
            "spec = registry.get('fig1')\n"
            "print(json.dumps([spec.name, [m for m in registry.MODULES "
            "if 'repro.experiments.' + m in sys.modules]]))\n"
        )
        name, loaded = json.loads(fresh_python(code))
        assert name == "fig1"
        assert loaded == ["fig01_scaling"]

    def test_specs_carry_result_types(self):
        for spec in registry.all_specs():
            assert spec.result_type is not None, spec.name
            assert hasattr(spec.result_type, "from_payload"), spec.name

    def test_only_summary_is_store_aware(self):
        aware = [s.name for s in registry.all_specs() if s.store_aware]
        assert aware == ["summary"]


class TestLookup:
    def test_get_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown experiment") as err:
            registry.get("fig99")
        assert str(err.value).endswith("known: " + ", ".join(registry.MODULE_OF))

    def test_duplicate_registration_same_module_is_idempotent(self):
        spec = registry.get("fig1")
        assert register(spec) is spec

    def test_duplicate_registration_other_module_rejected(self):
        spec = registry.get("fig1")
        clone = ExperimentSpec(
            name="fig1",
            title=spec.title,
            module="repro.experiments.somewhere_else",
            runner=spec.runner,
        )
        with pytest.raises(ConfigurationError, match="registered twice"):
            register(clone)


class TestSchemas:
    def test_duplicate_parameter_name_rejected(self):
        spec = registry.get("fig1")
        with pytest.raises(ConfigurationError, match="duplicate parameter 'x'"):
            ExperimentSpec(
                name="dup",
                title=spec.title,
                module=spec.module,
                runner=spec.runner,
                params=(Param("x", "int", 1), Param("x", "float", 2.0)),
            )

    def test_defaults_match_runner_signature(self):
        for spec in registry.all_specs():
            signature = inspect.signature(spec.runner)
            for param in spec.params:
                assert param.name in signature.parameters, (
                    f"{spec.name}: schema param {param.name!r} not a "
                    "runner keyword"
                )

    def test_quick_overrides_apply(self):
        spec = registry.get("fig11")
        full = spec.resolve()
        quick = spec.resolve(quick=True)
        assert full["duration"] == 100.0
        assert quick["duration"] == 2.0
        assert quick["n_instances"] == full["n_instances"]

    def test_resolve_rejects_unknown_param(self):
        with pytest.raises(ConfigurationError, match="has no parameter"):
            registry.get("fig2").resolve({"bogus": 1})

    def test_parse_overrides_types(self):
        spec = registry.get("fig12")
        parsed = spec.parse_overrides(
            ["duration=1.5", "threads=4", "core_counts=[4, 8]"]
        )
        assert parsed == {"duration": 1.5, "threads": 4, "core_counts": [4, 8]}

    def test_parse_overrides_rejects_bad_pair(self):
        spec = registry.get("fig12")
        with pytest.raises(ConfigurationError, match="key=value"):
            spec.parse_overrides(["duration"])
        with pytest.raises(ConfigurationError, match="cannot parse"):
            spec.parse_overrides(["duration=abc"])

    def test_json_list_items_must_match_the_default(self):
        ints = registry.Param("counts", "json", (4, 8))
        floats = registry.Param("scales", "json", (0.9, 1.1))
        names = registry.Param("apps", "json", ("x264",))
        assert ints.parse("[16]") == [16]
        assert floats.parse("[1, 1.5]") == [1, 1.5]
        assert names.parse('["canneal"]') == ["canneal"]
        for param, text in (
            (ints, "[true]"),
            (ints, "[8.0]"),
            (ints, "8"),
            (floats, '["0.9"]'),
            (names, "[1]"),
            (names, "null"),
        ):
            with pytest.raises(ConfigurationError, match="cannot parse"):
                param.parse(text)
        # Defaults that are not one scalar type leave the value as parsed.
        mixed = registry.Param("workloads", "json", (("x264",), ("dedup",)))
        assert mixed.parse('[["x264"], 3]') == [["x264"], 3]
        assert registry.Param("shares", "json", None).parse("null") is None

    def test_canonical_params_is_key_order_independent(self):
        spec = registry.get("fig2")
        a = spec.canonical_params({"node_name": "22nm", "n_samples": 5})
        b = spec.canonical_params({"n_samples": 5, "node_name": "22nm"})
        assert a == b

    def test_fingerprint_is_stable_and_hexish(self):
        spec = registry.get("fig5")
        fp = spec.fingerprint()
        assert fp == spec.fingerprint()
        assert len(fp) == 16
        int(fp, 16)

    def test_fingerprints_differ_across_modules(self):
        assert (
            registry.get("fig5").fingerprint()
            != registry.get("fig6").fingerprint()
        )


class TestDurationStandardisation:
    """Satellite: fig11/12/13/summary agree on a ``duration`` param."""

    @pytest.mark.parametrize("name", ["fig11", "fig12", "fig13", "summary"])
    def test_duration_is_the_canonical_name(self, name):
        spec = registry.get(name)
        param = spec.param("duration")
        assert param.name == "duration"
        assert param.kind == "float"

    @pytest.mark.parametrize(
        "name, retired",
        [
            ("fig12", "boost_duration"),
            ("fig13", "boost_duration"),
            ("summary", "transient_duration"),
        ],
    )
    def test_retired_duration_names_are_unknown(self, name, retired):
        spec = registry.get(name)
        with pytest.raises(ConfigurationError, match="known: .*duration"):
            spec.resolve({retired: 1.0})
        assert retired not in inspect.signature(spec.runner).parameters


class TestParamParsing:
    def test_bool_kind_accepts_common_spellings(self):
        p = Param(name="flag", kind="bool", default=False)
        assert p.parse("true") is True
        assert p.parse("0") is False
        with pytest.raises(ConfigurationError):
            p.parse("maybe")

    def test_json_kind_round_trips_structures(self):
        p = Param(name="blob", kind="json", default=None)
        assert p.parse('{"a": [1, 2]}') == {"a": [1, 2]}

    def test_unset_quick_means_no_override(self):
        p = Param(name="x", kind="int", default=3)
        assert p.quick is UNSET
