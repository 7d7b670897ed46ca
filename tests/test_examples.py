"""Every script under ``examples/`` runs to completion.

The examples call library functions that no experiment calls
(``temperature_maps`` on two mappings, ``total_budget``, ``repro.dtm``,
``repro.variation``), so a fresh-interpreter run of each is the only
check that those call sites still work.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

#: Command-line arguments per example; the boosting race defaults to
#: 20 s of simulated time, and half a second exercises the same code.
ARGS = {"boosting_transient.py": ["0.5"]}


def test_examples_found():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ),
    }
    done = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
