"""Experiment modules: one per paper table/figure.

Every module exposes a ``run(...)`` function returning a plain result
object with a ``rows()`` method (list of tuples for tabulation) and a
``table()`` method (formatted text).  The ``darksilicon`` CLI and the
paper checks under ``tests/paper/`` both consume these — the checks
additionally assert the headline *shapes* the paper reports (who wins,
in which direction, by roughly what factor).

Importing the package loads none of the experiment modules; the
registry (:mod:`repro.experiments.registry`) loads them on first lookup.

Figure -> module map (see DESIGN.md for the full experiment index):

====== ===============================================
Fig 1  :mod:`repro.experiments.fig01_scaling`
Fig 2  :mod:`repro.experiments.fig02_vf_curve`
Fig 3  :mod:`repro.experiments.fig03_power_fit`
Fig 4  :mod:`repro.experiments.fig04_speedup`
Fig 5  :mod:`repro.experiments.fig05_tdp_dark_silicon`
Fig 6  :mod:`repro.experiments.fig06_temperature_constraint`
Fig 7  :mod:`repro.experiments.fig07_dvfs`
Fig 8  :mod:`repro.experiments.fig08_patterning`
Fig 9  :mod:`repro.experiments.fig09_dsrem`
Fig 10 :mod:`repro.experiments.fig10_tsp`
Fig 11 :mod:`repro.experiments.fig11_boosting_transient`
Fig 12 :mod:`repro.experiments.fig12_boosting_sweep`
Fig 13 :mod:`repro.experiments.fig13_boosting_apps`
Fig 14 :mod:`repro.experiments.fig14_ntc`
====== ===============================================
"""

from repro.experiments.common import get_chip, format_table
from repro.experiments import registry

# No experiment module is imported here (see registry.MODULES);
# ``from repro.experiments import fig05_tdp_dark_silicon`` still works
# as a submodule import.
__all__ = ["get_chip", "format_table", "registry"]
