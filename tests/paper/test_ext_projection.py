"""Extension check: the revised dark-silicon projection.

The paper's motivation: the literature's fixed-power-budget methodology
over-predicted dark silicon (">50 % at 22 nm"); accounting for
temperature and DVFS yields a far less conservative trend.  This
check regenerates the three-methodology projection and asserts its
ordering at every node.
"""

import pytest

from repro.experiments import ext_projection


def test_projection():
    result = ext_projection.run()

    print("\n=== Extension: dark-silicon projection (ferret, TDP 185 W) ===")
    print(result.table())

    for entry in result.entries:
        # Methodology ordering at every node: TDP >= temperature >= DVFS.
        assert entry.dark_tdp >= entry.dark_temp - 1e-9, entry.node
        assert entry.dark_temp >= entry.dark_dvfs - 1e-9, entry.node
        # DVFS turns nearly the whole chip on ("dim, not dark").
        assert entry.dark_dvfs < 0.10, entry.node

    # The fixed-budget methodology claims a large dark share at 16 nm ...
    assert result.node("16nm").dark_tdp > 0.30
    # ... while performance under the physical constraint keeps scaling.
    gips = [e.gips_dvfs for e in result.entries]
    assert gips == sorted(gips)
    assert result.node("8nm").gips_dvfs > 2 * result.node("16nm").gips_dvfs
