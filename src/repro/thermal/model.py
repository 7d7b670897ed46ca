"""The assembled thermal model of one chip/package.

:class:`ThermalModel` freezes an :class:`repro.thermal.rc_network.RCNetwork`
together with the floorplan it was built from and caches the expensive
artefacts every experiment reuses:

* the factorisation of the conductance matrix ``A``, computed by the
  model's :mod:`solver backend <repro.thermal.backends>` and shared by
  the steady-state solver, the batched engine and (indirectly) TSP;
* per-``dt`` factorisations of the backward-Euler step matrix
  ``C/dt + A``, shared by every
  :class:`~repro.thermal.transient.TransientSimulator` on this model;
* the core-to-core **influence matrix** ``B``: row ``i``, column ``j`` is
  the steady-state temperature rise of core ``i`` per watt injected at
  core ``j``.  ``T_core = T_amb + B @ P_core`` for temperature-independent
  power.  ``B`` is the object at the heart of the TSP computation
  (Pagani et al., CODES+ISSS 2014).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse

from repro import obs
from repro.errors import ConfigurationError
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.stack import LayerStack
from repro.thermal import backends
from repro.thermal.backends import Factorization, SolverBackend
from repro.thermal.config import ThermalConfig
from repro.thermal.rc_network import RCNetwork


class ThermalModel:
    """Frozen RC model of one chip, with cached factorisations.

    Args:
        network: the assembled, validated RC network.
        floorplan: the die floorplan the silicon layer mirrors, or the
            :class:`~repro.floorplan.stack.LayerStack` of a 3D chip
            (core nodes then follow the stack's layer-major order).
        config: the package configuration used during assembly.
        core_node_indices: network indices of the silicon (power-input)
            nodes, in floorplan block order (layer-major for stacks).
        backend: solver backend (name or object) for every factorisation
            this model owns; ``None`` selects the process default (see
            :func:`repro.thermal.backends.default_backend_name`).
    """

    def __init__(
        self,
        network: RCNetwork,
        floorplan: Union[Floorplan, LayerStack],
        config: ThermalConfig,
        core_node_indices: Sequence[int],
        backend: Union[None, str, SolverBackend] = None,
    ) -> None:
        network.validate()
        if isinstance(floorplan, LayerStack):
            self._stack: Optional[LayerStack] = floorplan
            self._floorplan = floorplan.layers[0].floorplan
        else:
            self._stack = None
            self._floorplan = floorplan
        n_blocks = len(floorplan)
        if len(core_node_indices) != n_blocks:
            raise ConfigurationError(
                f"{len(core_node_indices)} core nodes for "
                f"{n_blocks} floorplan blocks"
            )
        self._network = network
        self._config = config
        self._core_indices = np.asarray(core_node_indices, dtype=int)
        self._matrix: sparse.csr_matrix = network.conductance_matrix()
        self._capacitances = network.capacitances()
        self._backend = backends.resolve_backend(backend)
        self._factorization: Optional[Factorization] = None
        self._step_factorizations: dict[float, Factorization] = {}
        self._influence: Optional[np.ndarray] = None

    @property
    def network(self) -> RCNetwork:
        """The underlying RC network."""
        return self._network

    @property
    def floorplan(self) -> Floorplan:
        """The package-side (layer 0) die floorplan."""
        return self._floorplan

    @property
    def stack(self) -> Optional[LayerStack]:
        """The layer stack, or ``None`` for a legacy single-layer model."""
        return self._stack

    @property
    def n_layers(self) -> int:
        """Silicon layer count (1 for the legacy single-layer model)."""
        return self._stack.n_layers if self._stack is not None else 1

    @property
    def config(self) -> ThermalConfig:
        """The package configuration."""
        return self._config

    @property
    def backend(self) -> SolverBackend:
        """The solver backend every factorisation of this model uses."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """The backend's registry name (e.g. ``"sparse"``)."""
        return self._backend.name

    @property
    def n_cores(self) -> int:
        """Number of cores (silicon power-input nodes)."""
        return len(self._core_indices)

    @property
    def n_nodes(self) -> int:
        """Total RC node count (all layers plus package)."""
        return self._network.size

    @property
    def core_indices(self) -> np.ndarray:
        """Network indices of the core silicon nodes (layer-major)."""
        return self._core_indices

    def layer_slice(self, layer: int) -> slice:
        """Slice of the flat core vector holding ``layer``'s blocks.

        The flat order is layer-major: layer 0 (package side) first.
        Layer 0's slice on a single-layer model is the whole vector, so
        legacy call sites keep working unchanged.
        """
        if self._stack is not None:
            return self._stack.layer_slice(layer)
        if layer != 0:
            raise ConfigurationError(
                f"layer index {layer} out of range [0, 1)"
            )
        return slice(0, self.n_cores)

    def core_index(self, layer: int, block: int) -> int:
        """Flat core index of ``(layer, block)``."""
        if self._stack is not None:
            return self._stack.flat_index(layer, block)
        sl = self.layer_slice(layer)
        if not 0 <= block < sl.stop:
            raise ConfigurationError(
                f"block index {block} out of range [0, {sl.stop}) "
                f"in layer {layer}"
            )
        return block

    def layer_core_node_indices(self, layer: int) -> np.ndarray:
        """Network node indices of ``layer``'s silicon blocks."""
        return self._core_indices[self.layer_slice(layer)]

    def interlayer_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The vertical conductances crossing bonding interfaces.

        ``(i, j, g)`` network-index/conductance arrays; empty on a
        single-layer model.  Exposed so analyses (and the decoupling
        property tests) can reason about the inter-layer coupling the
        builder assembled.
        """
        from repro.thermal.builder import INTERLAYER_TAG

        return self._network.tagged_edge_arrays(INTERLAYER_TAG)

    @property
    def ambient(self) -> float:
        """Ambient temperature, degC."""
        return self._config.ambient

    @property
    def conductance_matrix(self) -> sparse.csr_matrix:
        """``A = L + diag(g_amb)``, in W/K."""
        return self._matrix

    @property
    def capacitances(self) -> np.ndarray:
        """Per-node heat capacitances, in J/K."""
        return self._capacitances

    def factorization(self) -> Factorization:
        """The backend factorisation of ``A``, computed once and shared.

        Every consumer of steady-state solves on this model — the direct
        solver, the influence-matrix build behind the batched engine and
        TSP — goes through this one factorisation.
        """
        if self._factorization is None:
            self._factorization = self._backend.factorize(self._matrix)
        return self._factorization

    def step_factorization(self, dt: float) -> Factorization:
        """The factorisation of the step matrix ``C/dt + A``, per ``dt``.

        Shared by every :class:`~repro.thermal.transient.
        TransientSimulator` bound to this model with the same step, so
        repeated simulator constructions (e.g. one per boosting-sweep
        cell) factorise once instead of once each.

        Raises:
            ConfigurationError: on a non-positive ``dt``.
        """
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        key = float(dt)
        cached = self._step_factorizations.get(key)
        if cached is None:
            step_matrix = sparse.diags(self._capacitances / key) + self._matrix
            cached = self._backend.factorize(step_matrix)
            self._step_factorizations[key] = cached
        return cached

    def expand_core_powers(self, core_powers: Sequence[float]) -> np.ndarray:
        """Per-core powers -> full network power vector (W)."""
        p = np.asarray(core_powers, dtype=float)
        if p.shape != (self.n_cores,):
            raise ConfigurationError(
                f"expected {self.n_cores} core powers, got shape {p.shape}"
            )
        full = np.zeros(self.n_nodes)
        full[self._core_indices] = p
        return full

    def steady_state(self, power: Sequence[float]) -> np.ndarray:
        """Steady-state temperatures (degC) of every node.

        Args:
            power: full-length per-node injected power vector, in W, or
                an ``(n_nodes, k)`` block of ``k`` such vectors (one
                multi-RHS solve; the result has the same shape).
        """
        p = np.asarray(power, dtype=float)
        if p.ndim not in (1, 2) or p.shape[0] != self.n_nodes:
            raise ConfigurationError(
                f"expected {self.n_nodes} node powers, got shape {p.shape}"
            )
        obs.incr("thermal.model.solves")
        delta = self.factorization().solve(p)
        return self.ambient + delta

    def core_steady_state(self, core_powers: Sequence[float]) -> np.ndarray:
        """Steady-state core temperatures (degC) for per-core powers (W)."""
        full = self.steady_state(self.expand_core_powers(core_powers))
        return full[self._core_indices]

    def core_steady_state_batch(
        self, core_power_batch: Sequence[Sequence[float]]
    ) -> np.ndarray:
        """Steady-state core temperatures for a whole batch of vectors.

        Args:
            core_power_batch: shape ``(k, n_cores)``, one per-core power
                vector per row, in W.

        Returns:
            Core temperatures (degC), shape ``(k, n_cores)``.  The whole
            batch is one multi-RHS ``solve`` against the shared
            factorisation — the batched route experiments should prefer
            over per-vector :meth:`core_steady_state` loops.
        """
        p = np.asarray(core_power_batch, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.n_cores:
            raise ConfigurationError(
                f"expected a (k, {self.n_cores}) power batch, got shape {p.shape}"
            )
        obs.incr("thermal.model.solves")
        full = np.zeros((self.n_nodes, p.shape[0]))
        full[self._core_indices, :] = p.T
        delta = self.factorization().solve(full)
        return self.ambient + delta[self._core_indices, :].T

    def influence_matrix(self) -> np.ndarray:
        """Core-to-core steady-state influence matrix ``B``, in K/W.

        ``B[i, j]`` is core ``i``'s temperature rise per watt at core
        ``j``; all columns are computed in one multi-right-hand-side
        solve against the shared factorisation and cached.  ``B`` is
        symmetric (reciprocity) and entrywise positive.
        """
        if self._influence is None:
            factorization = self.factorization()
            units = np.zeros((self.n_nodes, self.n_cores))
            units[self._core_indices, np.arange(self.n_cores)] = 1.0
            delta = factorization.solve(units)
            self._influence = np.ascontiguousarray(delta[self._core_indices])
        return self._influence
