"""Shared fixtures for the test suite.

Two chip sizes are used throughout:

* ``small_chip`` — a 4x4 grid at 16 nm core area: every thermal/mapping
  property holds on it and solves are sub-millisecond, so unit tests and
  hypothesis properties stay fast;
* ``chip16`` / ``chip11`` — the paper's full chips, session-scoped, used
  by the integration tests that assert the published shapes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.apps.parsec import PARSEC, app_by_name
from repro.chip import Chip
from repro.tech.library import NODE_11NM, NODE_16NM


@pytest.fixture()
def global_obs():
    """Enable the global registry for a test, restoring it afterwards."""
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield obs
    obs.reset()
    if not was_enabled:
        obs.disable()


@pytest.fixture()
def fresh_python():
    """Run ``python -c code`` in a fresh interpreter; returns its stdout.

    The package under test is first on the path, so what the code
    imports (and leaves out of ``sys.modules``) is this tree's doing.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    }

    def run(code: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout

    return run


@pytest.fixture(scope="session")
def small_chip() -> Chip:
    """A fast 16-core chip (4x4 grid of 16 nm cores)."""
    return Chip.grid_chip(NODE_16NM, 4, 4)


@pytest.fixture(scope="session")
def chip16() -> Chip:
    """The paper's 100-core 16 nm chip."""
    return Chip.for_node(NODE_16NM)


@pytest.fixture(scope="session")
def chip11() -> Chip:
    """The paper's 198-core 11 nm chip."""
    return Chip.for_node(NODE_11NM)


@pytest.fixture(scope="session")
def x264():
    """The calibrated x264 profile."""
    return app_by_name("x264")


@pytest.fixture(scope="session")
def swaptions():
    """The calibrated swaptions profile (the power-hungriest app)."""
    return app_by_name("swaptions")


@pytest.fixture(scope="session")
def canneal():
    """The calibrated canneal profile (the worst thread scaler)."""
    return app_by_name("canneal")


@pytest.fixture(scope="session")
def all_apps():
    """Every PARSEC profile."""
    return dict(PARSEC)


@pytest.fixture(scope="session")
def lockstep_runs():
    """Factory of a heterogeneous lockstep boosting batch.

    ``lockstep_runs(chip)`` builds fresh runs (controllers are stateful)
    on an 11 nm chip, 0.1 s each: x264 x12 and canneal x24 boost under
    the 500 W cap and both hit it, ferret x24 boosts uncapped, and
    blackscholes x12 holds its best constant frequency.  The record
    intervals differ per run.
    """
    from repro.apps.workload import Workload
    from repro.boosting.constant import best_constant_frequency
    from repro.boosting.controller import BoostingController
    from repro.boosting.simulation import TransientRun, place_workload
    from repro.mapping.patterns import NeighbourhoodSpreadPlacer
    from repro.power.vf_curve import VFCurve

    def build(chip: Chip) -> list:
        curve = VFCurve.for_node(chip.node)
        runs = []
        for name, n, cap, record in (
            ("x264", 12, 500.0, 0.01),
            ("canneal", 24, 500.0, 0.05),
            ("ferret", 24, None, 0.02),
            ("blackscholes", 12, None, 0.1),
        ):
            workload = Workload.replicate(app_by_name(name), n, 8, chip.node.f_max)
            placed = place_workload(chip, workload, placer=NeighbourhoodSpreadPlacer())
            f = best_constant_frequency(placed).frequency
            if name == "blackscholes":
                control = {"frequency": f}
            else:
                control = {
                    "controller": BoostingController(
                        f_min=chip.node.f_min,
                        f_max=curve.f_limit,
                        step=chip.node.dvfs_step,
                        threshold=chip.t_dtm,
                        initial_frequency=f,
                    ),
                    "power_cap": cap,
                }
            runs.append(
                TransientRun(
                    placed,
                    0.1,
                    record_interval=record,
                    warm_start_frequency=f,
                    **control,
                )
            )
        return runs

    return build
