"""Multi-instance workloads (paper Section 2.3).

A single PARSEC application cannot usefully occupy hundreds of cores (the
parallelism wall, Figure 4), so the paper maps *multiple instances* of
each application, every instance running 1..8 parallel dependent threads.
:class:`ApplicationInstance` is one such instance pinned to a thread count
and an operating frequency; :class:`Workload` is an ordered collection of
instances with aggregate performance/power/core accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.apps.profile import AppProfile
from repro.errors import ConfigurationError
from repro.tech.node import TechNode


@dataclass(frozen=True)
class ApplicationInstance:
    """One running instance of an application.

    Attributes:
        app: the application profile.
        threads: number of parallel dependent threads (1..app.max_threads);
            the instance occupies exactly this many cores.
        frequency: operating frequency of the instance's cores in Hz.
    """

    app: AppProfile
    threads: int
    frequency: float

    def __post_init__(self) -> None:
        if not 1 <= self.threads <= self.app.max_threads:
            raise ConfigurationError(
                f"{self.app.name}: threads must be in [1, {self.app.max_threads}], "
                f"got {self.threads}"
            )
        if self.frequency < 0:
            raise ConfigurationError(
                f"frequency must be non-negative, got {self.frequency}"
            )

    @property
    def cores(self) -> int:
        """Cores occupied by this instance (one per thread)."""
        return self.threads

    @property
    def utilisation(self) -> float:
        """Per-core activity factor of this instance."""
        return self.app.utilisation(self.threads)

    def performance(self) -> float:
        """Instance throughput in instructions per second."""
        return self.app.instance_performance(self.threads, self.frequency)

    def core_power(self, node: TechNode, temperature: float = 80.0) -> float:
        """Eq. (1) power of each of the instance's cores, in W."""
        return self.app.core_power(node, self.threads, self.frequency, temperature)

    def total_power(self, node: TechNode, temperature: float = 80.0) -> float:
        """Power of the whole instance (all its cores), in W."""
        return self.cores * self.core_power(node, temperature)

    def with_frequency(self, frequency: float) -> "ApplicationInstance":
        """Copy of this instance at a different operating frequency."""
        return replace(self, frequency=frequency)


class Workload:
    """An ordered collection of application instances.

    Order matters: mapping policies place instances in workload order, so
    a workload also encodes the arrival sequence used by the paper's
    "map until the constraint is hit" experiments.
    """

    def __init__(self, instances: Iterable[ApplicationInstance] = ()) -> None:
        self._instances: list[ApplicationInstance] = list(instances)

    @classmethod
    def replicate(
        cls,
        app: AppProfile,
        n_instances: int,
        threads: int,
        frequency: float,
    ) -> "Workload":
        """``n_instances`` identical instances of ``app``.

        The paper's per-application experiments (Figures 5-7, 11-14) all
        use this homogeneous shape.
        """
        if n_instances < 0:
            raise ConfigurationError(
                f"n_instances must be non-negative, got {n_instances}"
            )
        instance = ApplicationInstance(app=app, threads=threads, frequency=frequency)
        return cls([instance] * n_instances)

    def add(self, instance: ApplicationInstance) -> None:
        """Append an instance to the workload."""
        self._instances.append(instance)

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[ApplicationInstance]:
        return iter(self._instances)

    def __getitem__(self, index: int) -> ApplicationInstance:
        return self._instances[index]

    @property
    def instances(self) -> tuple[ApplicationInstance, ...]:
        """The instances, in mapping order."""
        return tuple(self._instances)

    @property
    def total_cores(self) -> int:
        """Cores needed to run every instance simultaneously."""
        return sum(inst.cores for inst in self._instances)

    def total_performance(self) -> float:
        """Aggregate throughput in instructions per second."""
        return sum(inst.performance() for inst in self._instances)

    def total_power(self, node: TechNode, temperature: float = 80.0) -> float:
        """Aggregate Eq. (1) power of all instances, in W."""
        return sum(inst.total_power(node, temperature) for inst in self._instances)

    def at_frequency(self, frequency: float) -> "Workload":
        """Copy of the workload with every instance at ``frequency``."""
        return Workload(inst.with_frequency(frequency) for inst in self._instances)
