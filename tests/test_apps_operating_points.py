"""Operating-point tables: bit-identical to the scalar Eq. (1) path."""

import dataclasses

import pytest

from repro.apps.operating_points import operating_points
from repro.apps.parsec import PARSEC
from repro.errors import InfeasibleError
from repro.mapping.dsrem import DsRemConfig, ds_rem
from repro.power.vf_curve import VFCurve
from repro.tech.library import ALL_NODES, NODE_11NM, NODE_16NM
from repro.units import GIGA

#: A DsRem grid as a user might write it: unsorted, with a repeat.
CUSTOM = DsRemConfig(frequencies=[3.6 * GIGA, 2.0 * GIGA, 2.8 * GIGA, 2.0 * GIGA])


def _assert_entries_match_scalar(table):
    app, node, t = table.app, table.node, table.temperature
    assert len(table.power) == app.max_threads
    for n in range(1, app.max_threads + 1):
        for level, f in enumerate(table.frequencies):
            assert table.power[n - 1][level] == app.core_power(node, n, f, temperature=t)
            assert table.performance[n - 1][level] == app.instance_performance(n, f)
            assert table.core_power(n, f) == table.power[n - 1][level]
            assert table.instance_performance(n, f) == table.performance[n - 1][level]


@pytest.mark.parametrize("node", ALL_NODES, ids=lambda n: n.name)
@pytest.mark.parametrize("app", sorted(PARSEC))
def test_ladder_entries_equal_scalar_model(app, node):
    table = operating_points(PARSEC[app], node, 80.0)
    assert list(table.frequencies) == node.frequency_ladder()
    _assert_entries_match_scalar(table)


@pytest.mark.parametrize("app", sorted(PARSEC))
def test_custom_grid_entries_equal_scalar_model(app):
    table = operating_points(PARSEC[app], NODE_16NM, 72.5, CUSTOM.frequencies)
    assert table.frequencies == (2.0 * GIGA, 2.8 * GIGA, 3.6 * GIGA)
    _assert_entries_match_scalar(table)


def test_off_table_points_take_the_scalar_path():
    app = PARSEC["x264"]
    table = operating_points(app, NODE_16NM, 80.0)
    off_grid = 3.05 * GIGA
    assert table.level(off_grid) is None
    assert table.core_power(8, off_grid) == app.core_power(NODE_16NM, 8, off_grid)
    assert table.instance_performance(8, off_grid) == app.instance_performance(8, off_grid)
    assert table.core_power(12, 3.6 * GIGA) == app.core_power(NODE_16NM, 12, 3.6 * GIGA)


def test_memoised_by_value():
    app = PARSEC["canneal"]
    first = operating_points(app, NODE_16NM, 80.0)
    assert operating_points(dataclasses.replace(app), NODE_16NM, 80.0) is first
    ladder = operating_points(app, NODE_16NM, 80.0, NODE_16NM.frequency_ladder()[::-1])
    assert ladder.frequencies == first.frequencies
    assert ladder.power == first.power
    # Same names, different values: different tables.
    hybrid = dataclasses.replace(NODE_16NM, factors=NODE_11NM.factors)
    assert operating_points(app, hybrid, 80.0).power != first.power
    lean = dataclasses.replace(app, ceff_22nm=0.5 * app.ceff_22nm)
    assert operating_points(lean, NODE_16NM, 80.0).power != first.power
    assert operating_points(app, NODE_16NM, 60.0).power != first.power


def test_grid_level_above_voltage_limit_raises(small_chip):
    node = small_chip.node
    too_fast = 1.05 * VFCurve.for_node(node).f_limit
    with pytest.raises(InfeasibleError):
        operating_points(PARSEC["x264"], node, 80.0, [2.0 * GIGA, too_fast])
    cfg = DsRemConfig(frequencies=[2.0 * GIGA, too_fast])
    with pytest.raises(InfeasibleError):
        ds_rem(small_chip, [PARSEC["x264"]], tdp=20.0, config=cfg)
