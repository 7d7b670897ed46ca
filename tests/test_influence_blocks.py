"""The influence matrix is built in column blocks of bounded size.

``ThermalModel.influence_matrix`` solves the core unit vectors in blocks
of about ``INFLUENCE_BLOCK_BYTES`` of right-hand side.  The blocked
``B`` must equal one full multi-RHS solve (bit for bit under SuperLU,
within rounding under LAPACK), and the build must hold no more than
``B`` plus about one block.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.chip import Chip
from repro.experiments.common import get_chip
from repro.tech.library import NODE_16NM
from repro.thermal import model as thermal_model
from repro.thermal.builder import build_thermal_model

MIB = 1 << 20

#: Node -> number of influence blocks at the shipped block size.
PAPER_BLOCKS = {"16nm": 1, "11nm": 2, "8nm": 5}


def _fresh(thermal, backend):
    """An uncached model of ``thermal``'s die under ``backend``."""
    die = thermal.stack if thermal.stack is not None else thermal.floorplan
    return build_thermal_model(die, thermal.config, backend=backend)


def _full_solve(model) -> np.ndarray:
    """``B`` from one ``(n_nodes, n_cores)`` multi-RHS solve."""
    units = np.zeros((model.n_nodes, model.n_cores), order="F")
    units[model.core_indices, np.arange(model.n_cores)] = 1.0
    return model.factorization().solve(units)[model.core_indices]


def _counting_solves(model) -> list[int]:
    """Record the column count of every solve on ``model``'s factorization."""
    factorization = model.factorization()
    solve = factorization.solve
    widths: list[int] = []

    def counted(rhs):
        widths.append(rhs.shape[1])
        return solve(rhs)

    factorization.solve = counted
    return widths


def _agrees(blocked, full, backend):
    if backend == "sparse":
        return np.array_equal(blocked, full)
    return np.allclose(blocked, full, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("backend", ["sparse", "dense"])
@pytest.mark.parametrize("node", sorted(PAPER_BLOCKS))
def test_paper_chips_blocked_equals_full_solve(node, backend):
    model = _fresh(get_chip(node).thermal, backend)
    widths = _counting_solves(model)
    blocked = model.influence_matrix()
    column_bytes = model.n_nodes * 8
    assert len(widths) == PAPER_BLOCKS[node]
    assert sum(widths) == model.n_cores
    assert max(widths) - min(widths) <= 1
    # Equal blocks hold at most one column more than the block size.
    assert (max(widths) - 1) * column_bytes <= thermal_model.INFLUENCE_BLOCK_BYTES
    assert blocked.shape == (model.n_cores, model.n_cores)
    assert blocked.flags.c_contiguous
    assert _agrees(blocked, _full_solve(model), backend)


@pytest.mark.parametrize("backend", ["sparse", "dense"])
def test_stack_blocked_equals_full_solve(backend, monkeypatch):
    # Shrink the block so the 2-layer stack's 50 cores take 3 uneven
    # blocks: the interlayer rows land in every block.
    thermal = Chip.stacked_grid(NODE_16NM, 5, 5, 2).thermal
    model = _fresh(thermal, backend)
    monkeypatch.setattr(
        thermal_model, "INFLUENCE_BLOCK_BYTES", model.n_nodes * 8 * 20
    )
    widths = _counting_solves(model)
    blocked = model.influence_matrix()
    assert widths == [16, 17, 17]
    assert _agrees(blocked, _full_solve(model), backend)


def test_cold_8nm_build_peaks_at_one_block_over_b():
    model = _fresh(get_chip("8nm").thermal, "sparse")
    tracemalloc.start()
    try:
        influence = model.influence_matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The old single solve held three (n_nodes, n_cores) arrays: 12 MiB.
    assert peak <= influence.nbytes + 2 * MIB
