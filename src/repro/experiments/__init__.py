"""Experiment modules: one per paper table/figure.

Every module exposes a ``run(...)`` function returning a plain result
object with a ``rows()`` method (list of tuples for tabulation) and a
``table()`` method (formatted text).  The ``darksilicon`` CLI and the
paper checks under ``tests/paper/`` both consume these — the checks
additionally assert the headline *shapes* the paper reports (who wins,
in which direction, by roughly what factor).

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

# Importing the package populates the experiment registry: every module
# registers its ExperimentSpec at import time, in this (display) order.
from repro.experiments import (  # noqa: E402  (registration side effect)
    fig01_scaling,
    fig02_vf_curve,
    fig03_power_fit,
    fig04_speedup,
    fig05_tdp_dark_silicon,
    fig06_temperature_constraint,
    fig07_dvfs,
    fig08_patterning,
    fig09_dsrem,
    fig10_tsp,
    fig11_boosting_transient,
    fig12_boosting_sweep,
    fig13_boosting_apps,
    fig14_ntc,
    ext_runtime,
    ext_projection,
    ext_sensitivity,
    ext_3d_amdahl,
    ext_3d_tsp,
    summary,
)
from repro.experiments import registry

__all__ = [
    "get_chip",
    "format_table",
    "registry",
    "fig01_scaling",
    "fig02_vf_curve",
    "fig03_power_fit",
    "fig04_speedup",
    "fig05_tdp_dark_silicon",
    "fig06_temperature_constraint",
    "fig07_dvfs",
    "fig08_patterning",
    "fig09_dsrem",
    "fig10_tsp",
    "fig11_boosting_transient",
    "fig12_boosting_sweep",
    "fig13_boosting_apps",
    "fig14_ntc",
    "ext_runtime",
    "ext_projection",
    "ext_sensitivity",
    "ext_3d_amdahl",
    "ext_3d_tsp",
    "summary",
]
