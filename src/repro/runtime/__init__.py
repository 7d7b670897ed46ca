"""Online runtime resource management on a dark-silicon chip.

The paper closes by arguing that "efficient design and management of
manycore systems in the dark silicon era require ... accurate estimation
of dark silicon [and] thermal-aware dark silicon management".  This
package provides the runtime side of that claim: an event-driven
simulator in which application jobs arrive over time and an admission
policy decides when each runs, with how many threads, and at which v/f —
under either a TDP or the thermal constraint.

* :mod:`repro.runtime.jobs` — jobs, completion records, deterministic
  job-stream generation;
* :mod:`repro.runtime.policies` — admission policies: the TDP-FIFO
  baseline and a TSP-guided thermally safe policy;
* :mod:`repro.runtime.simulator` — the event loop and its metrics
  (makespan, response times, energy, thermal safety).
"""

from repro.runtime.jobs import Job, JobRecord, deterministic_job_stream
from repro.runtime.policies import (
    AdmissionDecision,
    AdmissionPolicy,
    TdpFifoPolicy,
    TspAdaptivePolicy,
)
from repro.runtime.simulator import OnlineSimulator, RuntimeResult

__all__ = [
    "Job",
    "JobRecord",
    "deterministic_job_stream",
    "AdmissionDecision",
    "AdmissionPolicy",
    "TdpFifoPolicy",
    "TspAdaptivePolicy",
    "OnlineSimulator",
    "RuntimeResult",
]
