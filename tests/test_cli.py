"""The darksilicon CLI."""

import dataclasses
import json
import re

import pytest

from repro import obs
from repro.cli import main


def _explode(**kwargs):
    raise ValueError("exploded")


def _break(monkeypatch, name):
    """Swap ``name``'s runner for one that raises ``ValueError``."""
    from repro.experiments import registry as reg

    monkeypatch.setitem(
        reg._REGISTRY,
        name,
        dataclasses.replace(reg.get(name), runner=_explode, params=()),
    )


@pytest.fixture()
def restore_obs():
    """Run a CLI profiling command, then restore global registry state."""
    was_enabled = obs.enabled()
    yield
    obs.reset()
    if not was_enabled:
        obs.disable()


class TestDispatch:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig5", "fig14", "runtime", "projection", "sensitivity"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "16nm" in out
        assert "0.53" in out

    def test_fig4_runs(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "x264" in out
        assert "canneal" in out

    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "ntc" in out
        assert "boost" in out

    def test_list_names_only_registered_experiments(self, capsys):
        from repro.experiments import registry

        assert main(["list"]) == 0
        assert capsys.readouterr().out.split() == registry.names()

    def test_run_and_batch_import_only_the_named_experiment(self, fresh_python):
        code = (
            "import contextlib, io, json, sys\n"
            "from repro.cli import main\n"
            "from repro.experiments import registry\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['run', 'fig1']) == 0\n"
            "    assert main(['batch', 'fig1']) == 0\n"
            "print(json.dumps([m for m in registry.MODULES\n"
            "                  if 'repro.experiments.' + m in sys.modules]))\n"
        )
        assert json.loads(fresh_python(code)) == ["fig01_scaling"]

    def test_list_family_filter(self, capsys):
        assert main(["list", "--family", "ext*"]) == 0
        names = capsys.readouterr().out.split()
        assert "ext_3d_tsp" in names
        assert "ext_3d_amdahl" in names
        assert all(n.startswith("ext") for n in names)

    def test_list_family_question_mark_glob(self, capsys):
        assert main(["list", "--family", "fig1?"]) == 0
        names = capsys.readouterr().out.split()
        assert "fig10" in names
        assert "fig14" in names
        assert "fig1" not in names
        assert "fig5" not in names

    def test_list_family_long_respects_filter(self, capsys):
        assert main(["list", "--long", "--family", "ext_3d*"]) == 0
        out = capsys.readouterr().out
        assert "ext_3d_amdahl" in out
        assert "stack height" in out
        assert "fig10" not in out

    def test_list_family_no_match_fails(self, capsys):
        assert main(["list", "--family", "bogus*"]) == 2
        assert "no experiment matches family" in capsys.readouterr().err


class TestObservabilityCli:
    def test_profile_flag_appends_snapshot(self, capsys, restore_obs):
        assert main(["fig1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "=== observability ===" in out
        payload = out.split("=== observability ===", 1)[1]
        snap = json.loads(payload)
        # The serial batch's stage span encloses the experiment's.
        assert snap["spans"]["sweep.batch.experiment.fig1"]["count"] == 1
        assert snap["gauges"]["process.max_rss_bytes"] > 0

    def test_max_rss_is_this_process_peak_not_its_launchers(
        self, fresh_python, tmp_path
    ):
        # The launcher holds about 150 MiB when it starts fig1, which
        # itself peaks near 70 MB.  Linux's ru_maxrss would report the
        # launcher's peak in the child.
        target = tmp_path / "snap.json"
        launcher = (
            "import subprocess, sys\n"
            "ballast = b'x' * (150 * 2**20)\n"
            "run = [sys.executable, '-m', 'repro.cli', 'run', 'fig1', "
            f"'--profile-out', {str(target)!r}]\n"
            "subprocess.run(run, capture_output=True, check=True)\n"
        )
        fresh_python(launcher)
        snap = json.loads(target.read_text())
        assert 0 < snap["gauges"]["process.max_rss_bytes"] < 120e6

    def test_profile_out_csv(self, capsys, tmp_path, restore_obs):
        target = tmp_path / "snap.csv"
        assert main(["fig1", "--profile-out", str(target)]) == 0
        capsys.readouterr()
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "kind,name,count,total_s,value"
        assert len(lines) > 1

    def test_without_profile_registry_stays_silent(self, capsys):
        was_enabled = obs.enabled()
        before = obs.snapshot()
        assert main(["fig1"]) == 0
        capsys.readouterr()
        assert obs.enabled() == was_enabled
        if not was_enabled:
            assert obs.snapshot() == before


class TestObsWatchCli:
    """``obs watch`` over the real ``batch --quick fig10 fig11`` snapshot."""

    def test_obs_watch_passes_shipped_budgets(self, capsys, batch_snapshot_file):
        assert main(["obs", "watch", "--snapshot", str(batch_snapshot_file)]) == 0
        out = capsys.readouterr().out
        assert "0 hard violation(s)" in out

    def test_obs_watch_exits_1_on_hard_violation(
        self, capsys, tmp_path, batch_snapshot_file
    ):
        budgets = tmp_path / "strict.json"
        budgets.write_text(
            json.dumps(
                {
                    "budgets": [
                        {"metric": "solver.cost.factorizations", "max": 0}
                    ]
                }
            )
        )
        assert (
            main(
                [
                    "obs",
                    "watch",
                    "--snapshot",
                    str(batch_snapshot_file),
                    "--budgets",
                    str(budgets),
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "VIOLATED (hard): solver.cost.factorizations" in out

    def test_obs_watch_bad_budgets_is_config_error(
        self, capsys, tmp_path, batch_snapshot_file
    ):
        budgets = tmp_path / "broken.json"
        budgets.write_text("{not json")
        assert (
            main(
                [
                    "obs",
                    "watch",
                    "--snapshot",
                    str(batch_snapshot_file),
                    "--budgets",
                    str(budgets),
                ]
            )
            == 2
        )
        assert "not JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_obs_watch_unreadable_snapshot_exits_2(
        self, capsys, tmp_path, content
    ):
        # A missing or malformed snapshot must not read as a violation.
        snapshot = tmp_path / "snap.json"
        if content is not None:
            snapshot.write_text(content)
        assert main(["obs", "watch", "--snapshot", str(snapshot)]) == 2
        assert capsys.readouterr().err.strip()

    @pytest.mark.parametrize(
        "argv",
        [
            ["obs"],
            ["obs", "watch"],
            ["obs", "demo"],
            ["obs", "watch", "--snapshot", "s.json", "--profile"],
        ],
    )
    def test_obs_without_a_snapshot_to_watch_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_run_obs_is_an_unknown_experiment(self, capsys):
        assert main(["run", "obs"]) == 2
        assert "unknown experiment 'obs'; try 'list'" in capsys.readouterr().err

    def test_obs_help_lists_watch_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{watch}" in out
        assert "demo" not in out
        assert "[--profile" not in out


class TestManifestCli:
    def test_run_with_store_appends_manifest_lines(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        store = str(tmp_path / "store")
        assert main(["run", "fig1", "--store", store]) == 0
        assert main(["run", "fig1", "--store", store]) == 0
        capsys.readouterr()
        manifests = read_manifests(store)
        assert [m.cached for m in manifests] == [False, True]
        assert all(m.experiment == "fig1" for m in manifests)

    def test_batch_with_store_appends_manifest_lines(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        store = str(tmp_path / "store")
        assert main(["batch", "fig1", "fig2", "--quick", "--store", store]) == 0
        capsys.readouterr()
        manifests = read_manifests(store)
        assert sorted(m.experiment for m in manifests) == ["fig1", "fig2"]
        assert all(not m.cached and m.error is None for m in manifests)


class TestReportCli:
    def test_report_renders_dashboard(self, tmp_path, capsys, restore_obs):
        snapshot = tmp_path / "snapshot.json"
        assert main(["run", "fig1", "--profile-out", str(snapshot)]) == 0
        capsys.readouterr()
        out = tmp_path / "reports" / "perf.md"
        assert main([
            "report", "--snapshot", str(snapshot), "--out", str(out),
        ]) == 0
        assert "report written" in capsys.readouterr().out
        text = out.read_text()
        assert "# Performance report" in text
        assert "| `sweep.batch.experiment.fig1` | 1 |" in text

    def test_report_includes_store_ledger(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", "fig1", "--store", store]) == 0
        capsys.readouterr()
        out = tmp_path / "perf.md"
        assert main(["report", "--store", store, "--out", str(out)]) == 0
        text = out.read_text()
        assert "runs recorded: **1**" in text
        assert "fig1" in text


class TestExperimentsTableApi:
    """Every experiment result must expose rows() and table()."""

    @pytest.mark.parametrize("module_name", [
        "fig01_scaling", "fig02_vf_curve", "fig03_power_fit", "fig04_speedup",
    ])
    def test_light_experiments(self, module_name):
        import importlib

        module = importlib.import_module(f"repro.experiments.{module_name}")
        result = module.run()
        rows = result.rows()
        assert len(rows) > 0
        text = result.table()
        assert isinstance(text, str)
        assert "\n" in text


class TestExtensionCommands:
    def test_sensitivity_runs(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "all hold" in out
        assert "ceff" in out

    def test_projection_runs(self, capsys):
        assert main(["projection"]) == 0
        out = capsys.readouterr().out
        assert "dark@TDP" in out
        assert "8nm" in out

    def test_csv_export_of_extension(self, tmp_path, capsys):
        assert main(["projection", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "projection.csv").exists()


class TestSummary:
    def test_summary_module_runs_quick(self):
        from repro.experiments import summary

        result = summary.run(duration=0.5)
        rows = {r[0]: r for r in result.rows()}
        # Every figure with a quantitative headline appears once.
        for fig in ("fig3", "fig5", "fig9", "fig10", "fig11", "fig14"):
            assert fig in rows
        assert "x264" in result.table() or "fig3" in result.table()

    def test_failing_sibling_is_named(self, monkeypatch):
        from repro.errors import ReproError
        from repro.experiments import summary

        _break(monkeypatch, "fig3")
        with pytest.raises(ReproError, match="sibling 'fig3' failed: "
                           "ValueError: exploded"):
            summary.run(duration=0.5)


class TestRegistrySubcommands:
    """The registry-backed run/batch/describe/list surface."""

    def test_run_subcommand_equals_legacy_spelling(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "16nm" in out

    def test_run_with_params_override(self, capsys):
        assert main(
            ["run", "fig12", "--params", "duration=0.3", "core_counts=[8]"]
        ) == 0
        out = capsys.readouterr().out
        assert out.split()[:2] == ["fig12", "ran"]
        assert "[batch] 1 cells: 0 cached, 1 executed, 0 failed" in out

    def test_run_rejects_bad_param(self, capsys):
        assert main(["run", "fig12", "--params", "duration=abc"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, param",
        [
            ("fig11", "power_cap=nan"),
            ("fig11", "power_cap=-inf"),
            ("fig12", "duration=nan"),
            ("fig12", "duration=inf"),
        ],
    )
    def test_run_rejects_non_finite_float_param(self, capsys, name, param):
        # A NaN cap used to run with a cap that never binds; a non-finite
        # duration failed its cell inside the step plan.
        assert main(["run", name, "--quick", "--params", param]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err and param.split("=")[0] in err

    @pytest.mark.parametrize(
        "name, param",
        [
            ("sensitivity", "scales=[NaN]"),
            ("fig12", "core_counts=[Infinity]"),
            ("fig12", "core_counts=[-Infinity]"),
        ],
    )
    def test_run_rejects_non_finite_json_param(self, capsys, name, param):
        # A NaN scale failed late in the power constraints; an infinite
        # core count failed its cell with a TypeError.
        assert main(["run", name, "--quick", "--params", param]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err and param.split("=")[0] in err

    @pytest.mark.parametrize(
        "name, param",
        [
            ("fig12", 'core_counts=["a"]'),
            ("fig12", "core_counts=[8.5]"),
            ("sensitivity", 'scales=["x"]'),
        ],
    )
    def test_run_rejects_wrongly_typed_json_param(self, capsys, name, param):
        # Each used to fail its cell with a TypeError after parsing.
        assert main(["run", name, "--quick", "--params", param]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err and param.split("=")[0] in err

    def test_run_rejects_unknown_param(self, capsys):
        assert main(["run", "fig1", "--params", "bogus=1"]) == 2
        assert "has no parameter" in capsys.readouterr().err

    def test_run_rejects_retired_duration_alias(self, capsys):
        assert main(["run", "fig12", "--params", "boost_duration=2"]) == 2
        err = capsys.readouterr().err
        assert "has no parameter 'boost_duration'" in err
        assert "known: " in err and "duration" in err.split("known: ")[1]

    def test_run_with_store_caches(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", "fig1", "--store", store]) == 0
        capsys.readouterr()
        assert main(["run", "fig1", "--store", store]) == 0
        out = capsys.readouterr().out
        assert out.split()[:2] == ["fig1", "cached"]
        assert "16nm" in out
        assert "[store] hits=1" in out

    def test_describe_prints_schema(self, capsys):
        assert main(["describe", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "duration" in out
        assert "boost_duration" not in out
        assert "aliases" not in out
        assert "fingerprint" in out

    def test_describe_unknown(self, capsys):
        assert main(["describe", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_list_long_titles(self, capsys):
        assert main(["list", "--long"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert "Transient boosting" in out

    def test_batch_cold_then_warm_expect_cached(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["batch", "fig1", "fig2", "--quick", "--store", store]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out
        assert main([*argv, "--expect-cached"]) == 0
        out = capsys.readouterr().out
        assert "2 cached" in out
        assert "hits=2" in out

    def test_batch_expect_cached_fails_cold(self, tmp_path, capsys):
        argv = [
            "batch", "fig1", "--quick",
            "--store", str(tmp_path / "store"), "--expect-cached",
        ]
        assert main(argv) == 3
        assert "--expect-cached" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["batch", "fig1", "--workers", "0"], "--workers"),
            (["batch", "fig1", "--workers", "two"], "--workers"),
            (["report", "--top", "-1", "--out", "{tmp}"], "--top"),
            (["report", "--recent", "-2", "--out", "{tmp}"], "--recent"),
            (["report", "--recent", "0", "--out", "{tmp}"], "--recent"),
        ],
    )
    def test_counts_below_one_rejected_at_parse_time(
        self, tmp_path, capsys, argv, option
    ):
        # --workers 0 used to end in a traceback, and report --top -1
        # exited 0 after dropping rows silently.
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path / "r.md") for a in argv])
        assert exc.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    def test_batch_unknown_experiment(self, capsys):
        assert main(["batch", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_batch_reports_cell_failure(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import registry as reg

        spec = reg.get("fig2")
        broken = [
            "batch", "fig1", "fig2", "--quick",
            "--store", str(tmp_path / "store"),
        ]
        monkeypatch.setitem(
            reg._REGISTRY,
            "fig2",
            type(spec)(
                name="fig2",
                title=spec.title,
                module=spec.module,
                runner=lambda **kw: (_ for _ in ()).throw(
                    ValueError("boom")
                ),
                params=spec.params,
                result_type=spec.result_type,
            ),
        )
        assert main(broken) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "1 failed" in out


class TestRunFailures:
    def test_run_all_reports_every_failure_and_exits_1(
        self, capsys, monkeypatch
    ):
        from repro.experiments import registry as reg

        fig1 = reg.get("fig1")
        for name in reg.names():
            if name not in ("fig1", "fig2"):
                monkeypatch.setitem(
                    reg._REGISTRY,
                    name,
                    dataclasses.replace(
                        reg.get(name),
                        runner=fig1.runner,
                        params=(),
                        store_aware=False,
                    ),
                )
        _break(monkeypatch, "fig2")
        assert main(["run", "all"]) == 1
        out = capsys.readouterr().out
        status = dict(
            re.findall(r"^(\S+) +(ran|cached|FAILED) +[\d.]+ s", out, re.M)
        )
        assert list(status) == reg.names()
        assert status.pop("fig2") == "FAILED"
        assert set(status.values()) == {"ran"}
        assert "ValueError: exploded" in out
        assert f"[batch] {len(reg.names())} cells: 0 cached, " in out
        assert "1 failed" in out

    def test_failed_cell_prints_its_traceback(self, capsys, monkeypatch):
        _break(monkeypatch, "fig1")
        assert main(["run", "fig1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["fig1", "FAILED"]
        assert lines[0].endswith("ValueError: exploded")
        assert lines[1] == "Traceback (most recent call last):"
        assert any("in _explode" in line for line in lines)
        assert lines[-2] == "ValueError: exploded"
        assert lines[-1].startswith("[batch] 1 cells: 0 cached, 0 executed")

    def test_keep_going_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "all", "--keep-going"])
        assert exc.value.code == 2
        assert "--keep-going" in capsys.readouterr().err
