"""Extension check: online resource management, TDP-FIFO vs TSP.

The paper's closing argument — thermal-aware dark-silicon management
beats fixed power budgeting — replayed as an *online* scheduling problem:
the same saturating job stream is run under a TDP-FIFO admission policy
and under a TSP-guided thermally verified policy.  Expected shape: the
TSP policy sustains higher throughput and utilisation at equal-or-better
thermal safety, finishing the stream sooner with less energy.
"""

import pytest

from repro.apps.parsec import PARSEC
from repro.core.tsp import ThermalSafePower
from repro.experiments.common import get_chip
from repro.runtime import (
    OnlineSimulator,
    TdpFifoPolicy,
    TspAdaptivePolicy,
    deterministic_job_stream,
)


def _study():
    chip = get_chip("16nm")
    apps = [PARSEC[n] for n in ("x264", "canneal", "swaptions", "ferret")]
    jobs = deterministic_job_stream(
        apps, n_jobs=60, mean_interarrival=0.3, work=400e9, seed=3
    )
    tdp = OnlineSimulator(chip, TdpFifoPolicy(tdp=185.0)).run(jobs)
    tsp = OnlineSimulator(
        chip, TspAdaptivePolicy(ThermalSafePower(chip))
    ).run(jobs)
    return chip, tdp, tsp


def test_runtime_policies():
    chip, tdp, tsp = _study()

    print("\n=== Online management: TDP-FIFO vs TSP-adaptive (60 jobs) ===")
    print(f"{'policy':10s} {'makespan':>9} {'resp':>6} {'GIPS':>6} {'util':>6} {'peak':>6} {'E [kJ]':>7}")
    for name, r in (("TDP-FIFO", tdp), ("TSP", tsp)):
        print(
            f"{name:10s} {r.makespan:>8.1f}s {r.mean_response_time:>5.1f}s "
            f"{r.throughput_gips:>6.0f} {r.utilisation:>5.0%} "
            f"{r.max_peak_temperature:>6.1f} {r.energy / 1e3:>7.1f}"
        )

    # Both complete the whole stream.
    assert len(tdp.records) == 60
    assert len(tsp.records) == 60
    # Both stay thermally safe (the TDP baseline thanks to the spread
    # placer and the pessimistic 185 W budget).
    assert tdp.max_peak_temperature <= chip.t_dtm + 0.5
    assert tsp.max_peak_temperature <= chip.t_dtm + 1e-6
    # The TSP policy finishes the saturating stream faster ...
    assert tsp.makespan < tdp.makespan
    # ... with higher sustained throughput and utilisation ...
    assert tsp.throughput_gips > tdp.throughput_gips
    assert tsp.utilisation > tdp.utilisation
    # ... and no more energy.
    assert tsp.energy <= tdp.energy * 1.05
