"""Table-driven DsRem against the scalar three-phase loop it replaced.

``reference_ds_rem`` below is the original formulation: every power and
throughput figure is a scalar ``AppProfile.core_power`` /
``instance_performance`` call, candidate configurations are rebuilt on
every exploit step, and next/previous levels are found by scanning the
ladder.  The production ``ds_rem`` indexes operating-point tables
instead; both must make the same decisions, bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.apps.parsec import PARSEC, PARSEC_ORDER
from repro.apps.workload import ApplicationInstance
from repro.core.estimator import MappingResult, PlacedInstance
from repro.experiments.fig09_dsrem import DEFAULT_WORKLOADS
from repro.mapping.dsrem import DsRemConfig, ds_rem
from repro.mapping.patterns import ThermalSpreadPlacer
from repro.power.budget import PAPER_TDP_PESSIMISTIC
from repro.sensitivity.analysis import perturbed_app
from repro.units import GIGA

COARSE = DsRemConfig(frequencies=[2.0 * GIGA, 2.8 * GIGA, 3.6 * GIGA])
CONFIGS = {
    "default": DsRemConfig(),
    "coarse": COARSE,
    "threads4": DsRemConfig(threads_options=[4]),
}


# -- the scalar reference ---------------------------------------------


class _RefState:
    def __init__(self, chip, placer):
        self.chip = chip
        self.placer = placer
        self.placed = []

    @property
    def occupied(self):
        return {c for p in self.placed for c in p.cores}

    def core_powers(self):
        powers = np.zeros(self.chip.n_cores)
        for p in self.placed:
            powers[list(p.cores)] += p.core_power
        return powers

    def peak_temperature(self):
        return self.chip.solver.peak_temperature(self.core_powers())

    def add(self, instance):
        cores = self.placer.place(self.chip, instance.cores, self.occupied)
        if cores is None:
            return False
        per_core = instance.core_power(self.chip.node, temperature=self.chip.t_dtm)
        self.placed.append(
            PlacedInstance(instance=instance, cores=tuple(cores), core_power=per_core)
        )
        return True

    def replace(self, index, frequency):
        old = self.placed[index]
        instance = old.instance.with_frequency(frequency)
        per_core = instance.core_power(self.chip.node, temperature=self.chip.t_dtm)
        self.placed[index] = PlacedInstance(
            instance=instance, cores=old.cores, core_power=per_core
        )

    def remove(self, index):
        del self.placed[index]

    def hottest_instance(self):
        if not self.placed:
            return None
        temps = self.chip.solver.temperatures(self.core_powers())
        hottest_core = int(np.argmax(temps))
        for i, p in enumerate(self.placed):
            if hottest_core in p.cores:
                return i
        return max(range(len(self.placed)), key=lambda i: self.placed[i].core_power)


def _ref_configs(app, chip, frequencies, cfg):
    threads_options = (
        cfg.threads_options
        if cfg.threads_options is not None
        else range(1, app.max_threads + 1)
    )
    configs = []
    for n in threads_options:
        if n > app.max_threads:
            continue
        for f in frequencies:
            power = n * app.core_power(chip.node, n, f, temperature=chip.t_dtm)
            configs.append((n, f, power, app.instance_performance(n, f)))
    return configs


def reference_ds_rem(chip, apps, tdp, cfg):
    frequencies = sorted(
        cfg.frequencies if cfg.frequencies is not None else chip.node.frequency_ladder()
    )
    state = _RefState(chip, ThermalSpreadPlacer())

    # Budget phase: density greedy, then the upgrade pass.
    configs = {app: _ref_configs(app, chip, frequencies, cfg) for app in apps}
    remaining_power = tdp
    free_cores = chip.n_cores
    while True:
        best = None
        for app in apps:
            for n, f, power, perf in configs[app]:
                if n > free_cores or power > remaining_power:
                    continue
                density = perf / power
                if best is None or density > best[0]:
                    best = (density, app, n, f)
        if best is None:
            break
        _, app, n, f = best
        if not state.add(ApplicationInstance(app=app, threads=n, frequency=f)):
            break
        added = state.placed[-1]
        remaining_power -= added.core_power * len(added.cores)
        free_cores -= len(added.cores)
    for _ in range(cfg.max_steps):
        best = None
        for i, placed in enumerate(state.placed):
            inst = placed.instance
            higher = [f for f in frequencies if f > inst.frequency]
            if not higher:
                continue
            f_next = higher[0]
            new_power = inst.cores * inst.app.core_power(
                chip.node, inst.threads, f_next, temperature=chip.t_dtm
            )
            extra = new_power - placed.core_power * len(placed.cores)
            if extra > remaining_power:
                continue
            gain = inst.app.instance_performance(inst.threads, f_next) - inst.performance()
            if gain <= 0:
                continue
            score = gain / max(extra, 1e-9)
            if best is None or score > best[0]:
                best = (score, i, f_next, extra)
        if best is None:
            break
        _, i, f_next, extra = best
        state.replace(i, f_next)
        remaining_power -= extra

    # Repair phase.
    for _ in range(cfg.max_steps):
        if state.peak_temperature() <= chip.t_dtm + 1e-6:
            break
        index = state.hottest_instance()
        if index is None:
            break
        lower = [f for f in frequencies if f < state.placed[index].instance.frequency]
        if lower:
            state.replace(index, lower[-1])
        else:
            state.remove(index)

    # Exploit phase: frequency upgrades first, then additional instances.
    for _ in range(cfg.max_steps):
        if state.peak_temperature() > chip.t_dtm - cfg.exploit_margin:
            break
        if not _ref_try_upgrade(state, frequencies) and not _ref_try_add(
            state, apps, frequencies, cfg
        ):
            break

    powers = state.core_powers()
    return MappingResult(
        chip=chip,
        placed=tuple(state.placed),
        rejected=(),
        core_powers=powers,
        peak_temperature=chip.solver.peak_temperature(powers),
    )


def _ref_try_upgrade(state, frequencies):
    chip = state.chip
    candidates = []
    for i, placed in enumerate(state.placed):
        inst = placed.instance
        higher = [f for f in frequencies if f > inst.frequency]
        if not higher:
            continue
        gain = inst.app.instance_performance(inst.threads, higher[0]) - inst.performance()
        candidates.append((gain, i, higher[0]))
    for gain, i, f_next in sorted(candidates, reverse=True):
        old_f = state.placed[i].instance.frequency
        state.replace(i, f_next)
        if state.peak_temperature() <= chip.t_dtm + 1e-6:
            return True
        state.replace(i, old_f)
    return False


def _ref_try_add(state, apps, frequencies, cfg):
    chip = state.chip
    free = chip.n_cores - len(state.occupied)
    if free == 0:
        return False
    candidates = []
    for app in apps:
        for n, f, power, perf in _ref_configs(app, chip, frequencies, cfg):
            if n <= free:
                candidates.append((perf, app, n, f))
    for perf, app, n, f in sorted(candidates, key=lambda c: -c[0]):
        if not state.add(ApplicationInstance(app=app, threads=n, frequency=f)):
            continue
        if state.peak_temperature() <= chip.t_dtm + 1e-6:
            return True
        state.remove(len(state.placed) - 1)
    return False


# -- the checks -------------------------------------------------------


def _decisions(result):
    return [
        (p.instance.app, p.instance.threads, p.instance.frequency, p.cores, p.core_power)
        for p in result.placed
    ]


WORKLOADS = [(name,) for name in PARSEC_ORDER] + [
    w for w in DEFAULT_WORKLOADS if len(w) > 1
]


def _assert_same(chip, apps, tdp, cfg):
    expected = reference_ds_rem(chip, apps, tdp, cfg)
    actual = ds_rem(chip, apps, tdp, config=cfg)
    assert _decisions(actual) == _decisions(expected)
    assert actual.gips == expected.gips
    assert actual.active_cores == expected.active_cores
    assert actual.peak_temperature == expected.peak_temperature


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("workload", WORKLOADS, ids="+".join)
def test_matches_scalar_reference(small_chip, workload, config):
    apps = [PARSEC[name] for name in workload]
    for tdp in (10.0, 40.0):
        _assert_same(small_chip, apps, tdp, CONFIGS[config])


@pytest.mark.parametrize("config", ["default", "coarse"])
def test_matches_scalar_reference_through_repair(chip16, config):
    """The 16-core chip never reaches T_DTM, so the repair phase is
    compared on the 100-core chip with a TDP above its thermal capacity."""
    _assert_same(chip16, [PARSEC["x264"], PARSEC["canneal"]], 300.0, CONFIGS[config])


def test_profiles_sharing_a_name_keep_their_own_budgets(chip16):
    """Regression: configurations were keyed by ``app.name``, so a
    perturbed copy of an application mixed with the original used
    whichever profile came last for both."""
    canneal = PARSEC["canneal"]
    lean = perturbed_app(canneal, ceff_scale=0.3, pind_scale=0.3)
    assert lean.name == canneal.name and lean != canneal
    renamed = dataclasses.replace(lean, name="canneal-lean")


    def placements(result):
        return [
            (p.instance.app is canneal, p.instance.threads, p.instance.frequency, p.cores)
            for p in result.placed
        ]

    for shared_mix, distinct_mix in (
        ([canneal, lean], [canneal, renamed]),
        ([lean, canneal], [renamed, canneal]),
    ):
        shared = ds_rem(chip16, shared_mix, PAPER_TDP_PESSIMISTIC)
        distinct = ds_rem(chip16, distinct_mix, PAPER_TDP_PESSIMISTIC)
        assert placements(shared) == placements(distinct)
        assert shared.gips == distinct.gips
