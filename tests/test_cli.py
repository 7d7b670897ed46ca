"""The darksilicon CLI."""

import json

import pytest

from repro import obs
from repro.cli import main


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

    def test_list_advertises_obs(self, capsys):
        assert main(["list"]) == 0
        assert "obs" in capsys.readouterr().out.split()

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
    def test_obs_command_emits_json_for_instrumented_subsystems(
        self, capsys, restore_obs
    ):
        assert main(["obs"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["version"] == 2
        subsystems = {
            name.split(".", 1)[0]
            for kind in ("counters", "timers", "spans")
            for name in snap[kind]
        }
        # The acceptance bar: one invocation covers >= 4 subsystems.
        assert len(subsystems) >= 4
        for expected in ("thermal", "tsp", "sweep"):
            assert expected in subsystems
        assert snap["spans"]["experiment.obs-demo"]["count"] == 1
        # The online runtime reports through its span only.
        assert snap["spans"]["experiment.obs-demo.runtime.run"]["count"] == 1

    def test_obs_command_writes_snapshot_file(
        self, capsys, tmp_path, restore_obs
    ):
        target = tmp_path / "snap.json"
        assert main(["obs", "--profile-out", str(target)]) == 0
        capsys.readouterr()
        assert json.loads(target.read_text())["version"] == 2

    def test_profile_flag_appends_snapshot(self, capsys, restore_obs):
        assert main(["fig1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "=== observability ===" in out
        payload = out.split("=== observability ===", 1)[1]
        snap = json.loads(payload)
        assert snap["spans"]["experiment.fig1"]["count"] == 1
        assert snap["gauges"]["process.max_rss_bytes"] > 0

    def test_max_rss_is_this_process_peak_not_its_launchers(self, fresh_python):
        # The launcher holds about 150 MiB when it starts the demo, which
        # itself peaks near 70 MB.  Linux's ru_maxrss would report the
        # launcher's peak in the child.
        launcher = (
            "import subprocess, sys\n"
            "ballast = b'x' * (150 * 2**20)\n"
            "demo = [sys.executable, '-m', 'repro.cli', 'obs']\n"
            "sys.stdout.write(subprocess.run("
            "demo, capture_output=True, text=True, check=True).stdout)\n"
        )
        snap = json.loads(fresh_python(launcher))
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
    @pytest.fixture()
    def snapshot_file(self, capsys, tmp_path, restore_obs):
        """A real demo snapshot exported to disk."""
        target = tmp_path / "snap.json"
        assert main(["obs", "--profile-out", str(target)]) == 0
        capsys.readouterr()
        return target

    def test_obs_watch_passes_shipped_budgets(self, capsys, snapshot_file):
        assert main(["obs", "watch", "--snapshot", str(snapshot_file)]) == 0
        out = capsys.readouterr().out
        assert "0 hard violation(s)" in out

    def test_obs_watch_exits_1_on_hard_violation(
        self, capsys, tmp_path, snapshot_file
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
                    str(snapshot_file),
                    "--budgets",
                    str(budgets),
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "VIOLATED (hard): solver.cost.factorizations" in out

    def test_obs_watch_bad_budgets_is_config_error(
        self, capsys, tmp_path, snapshot_file
    ):
        budgets = tmp_path / "broken.json"
        budgets.write_text("{not json")
        assert (
            main(
                [
                    "obs",
                    "watch",
                    "--snapshot",
                    str(snapshot_file),
                    "--budgets",
                    str(budgets),
                ]
            )
            == 2
        )
        assert "not JSON" in capsys.readouterr().err

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
        assert "| `experiment.fig1` | 1 |" in text

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

        result = summary.run(transient_duration=0.5)
        rows = {r[0]: r for r in result.rows()}
        # Every figure with a quantitative headline appears once.
        for fig in ("fig3", "fig5", "fig9", "fig10", "fig11", "fig14"):
            assert fig in rows
        assert "x264" in result.table() or "fig3" in result.table()


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
        assert "=== fig12" in out

    def test_run_rejects_bad_param(self, capsys):
        assert main(["run", "fig12", "--params", "duration=abc"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_run_rejects_unknown_param(self, capsys):
        assert main(["run", "fig1", "--params", "bogus=1"]) == 2
        assert "has no parameter" in capsys.readouterr().err

    def test_run_with_store_caches(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", "fig1", "--store", store]) == 0
        capsys.readouterr()
        assert main(["run", "fig1", "--store", store]) == 0
        assert ", cached" in capsys.readouterr().out

    def test_describe_prints_schema(self, capsys):
        assert main(["describe", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "duration" in out
        assert "boost_duration" in out
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


class TestKeepGoing:
    def test_keep_going_reports_and_fails_nonzero(self, capsys, monkeypatch):
        from repro.experiments import registry as reg

        for name in reg.names():
            if name in ("fig1", "fig2"):
                continue
            spec = reg.get(name)
            monkeypatch.setitem(
                reg._REGISTRY,
                name,
                type(spec)(
                    name=spec.name,
                    title=spec.title,
                    module=spec.module,
                    runner=lambda **kw: __import__(
                        "repro.experiments.fig01_scaling",
                        fromlist=["run"],
                    ).run(),
                    params=(),
                    result_type=spec.result_type,
                ),
            )
        spec2 = reg.get("fig2")
        monkeypatch.setitem(
            reg._REGISTRY,
            "fig2",
            type(spec2)(
                name="fig2",
                title=spec2.title,
                module=spec2.module,
                runner=lambda **kw: (_ for _ in ()).throw(
                    ValueError("exploded")
                ),
                params=(),
                result_type=spec2.result_type,
            ),
        )
        assert main(["run", "all", "--keep-going"]) == 1
        out = capsys.readouterr().out
        assert "=== fig2 FAILED (ValueError: exploded) ===" in out
        assert "=== run report ===" in out
        assert "FAIL" in out

    def test_without_keep_going_failure_raises(self, monkeypatch):
        from repro.experiments import registry as reg

        spec = reg.get("fig1")
        monkeypatch.setitem(
            reg._REGISTRY,
            "fig1",
            type(spec)(
                name="fig1",
                title=spec.title,
                module=spec.module,
                runner=lambda **kw: (_ for _ in ()).throw(
                    ValueError("exploded")
                ),
                params=(),
                result_type=spec.result_type,
            ),
        )
        with pytest.raises(ValueError, match="exploded"):
            main(["run", "fig1"])
