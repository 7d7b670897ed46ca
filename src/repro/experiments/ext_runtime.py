"""Extension experiment: online resource management (no paper figure).

Runs the identical saturating job stream under the TDP-FIFO baseline and
the TSP-adaptive policy and tabulates the scheduling metrics.  This is
the paper's conclusion ("thermal-aware dark silicon management") in an
online setting; `tests/paper/test_runtime_policies.py` asserts the
shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.parsec import app_by_name
from repro.chip import Chip
from repro.core.tsp import ThermalSafePower
from repro.experiments.common import format_table, get_chip
from repro.experiments.registry import ExperimentSpec, Param, register
from repro.io import PayloadSerializable
from repro.units import KILO
from repro.runtime import (
    OnlineSimulator,
    RuntimeResult,
    TdpFifoPolicy,
    TspAdaptivePolicy,
    deterministic_job_stream,
)


@dataclass(frozen=True)
class RuntimeComparison(PayloadSerializable):
    """Both policies' outcomes on one job stream."""

    n_jobs: int
    tdp: RuntimeResult
    tsp: RuntimeResult

    def rows(self):
        """(policy, makespan s, mean resp s, GIPS, util %, peak degC, kJ)."""
        out = []
        for name, r in (("tdp-fifo", self.tdp), ("tsp-adaptive", self.tsp)):
            out.append(
                [
                    name,
                    round(r.makespan, 1),
                    round(r.mean_response_time, 1),
                    round(r.throughput_gips, 1),
                    round(100 * r.utilisation, 1),
                    round(r.max_peak_temperature, 1),
                    round(r.energy / KILO, 2),
                ]
            )
        return out

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            (
                "policy",
                "makespan [s]",
                "mean resp [s]",
                "thruput [GIPS]",
                "util [%]",
                "peak [degC]",
                "energy [kJ]",
            ),
            self.rows(),
        )


def run(
    chip: Optional[Chip] = None,
    app_names: Sequence[str] = ("x264", "canneal", "swaptions", "ferret"),
    n_jobs: int = 60,
    mean_interarrival: float = 0.3,
    work: float = 400e9,
    tdp: float = 185.0,
    seed: int = 3,
) -> RuntimeComparison:
    """Run the two-policy comparison on a deterministic stream."""
    chip = chip or get_chip("16nm")
    apps = [app_by_name(n) for n in app_names]
    jobs = deterministic_job_stream(
        apps, n_jobs=n_jobs, mean_interarrival=mean_interarrival,
        work=work, seed=seed,
    )
    tdp_run = OnlineSimulator(chip, TdpFifoPolicy(tdp=tdp)).run(jobs)
    tsp_run = OnlineSimulator(
        chip, TspAdaptivePolicy(ThermalSafePower(chip))
    ).run(jobs)
    return RuntimeComparison(n_jobs=n_jobs, tdp=tdp_run, tsp=tsp_run)


SPEC = register(
    ExperimentSpec(
        name="runtime",
        title="Online TDP-FIFO vs TSP-adaptive policy comparison",
        module=__name__,
        runner=run,
        params=(
            Param(
                "app_names",
                "json",
                ("x264", "canneal", "swaptions", "ferret"),
                help="job-stream applications",
            ),
            Param(
                "n_jobs", "int", 60, quick=20, help="jobs in the stream"
            ),
            Param(
                "mean_interarrival",
                "float",
                0.3,
                help="mean interarrival time, s",
            ),
            Param("work", "float", 400e9, help="instructions per job"),
            Param("tdp", "float", 185.0, help="TDP budget, W"),
            Param("seed", "int", 3, help="stream RNG seed"),
        ),
        result_type=RuntimeComparison,
    )
)
