"""Generic thermal RC network: nodes, conductances, matrix assembly.

The network is the electrical-analogy graph HotSpot builds: nodes are
isothermal blocks with a heat capacitance, edges are thermal conductances
(W/K), and some nodes additionally conduct to the ambient.  With

* ``L`` the graph Laplacian of the edge conductances,
* ``g_amb`` the per-node ambient conductances,
* ``dT`` the vector of node temperatures above ambient,
* ``P`` the injected power vector,

steady state satisfies ``A dT = P`` with ``A = L + diag(g_amb)`` and the
transient obeys ``C d(dT)/dt = P - A dT``.  ``A`` is symmetric positive
definite as soon as every node has a conduction path to the ambient,
which :meth:`RCNetwork.validate` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NodeSpec:
    """One RC node.

    Attributes:
        name: unique node name (e.g. ``"si_12"``, ``"spr_ring_n"``).
        capacitance: heat capacitance in J/K (positive).
        ambient_conductance: direct conductance to ambient in W/K
            (zero for interior nodes).
    """

    name: str
    capacitance: float
    ambient_conductance: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ConfigurationError(
                f"node {self.name!r}: capacitance must be positive, "
                f"got {self.capacitance}"
            )
        if self.ambient_conductance < 0:
            raise ConfigurationError(
                f"node {self.name!r}: ambient_conductance must be "
                f"non-negative, got {self.ambient_conductance}"
            )


class RCNetwork:
    """A mutable RC network being assembled, then frozen into matrices."""

    def __init__(self) -> None:
        self._nodes: list[NodeSpec] = []
        self._index: dict[str, int] = {}
        self._edges: list[tuple[int, int, float]] = []
        # Bulk (vectorised) edge blocks: (i_indices, j_indices, g, tag)
        # arrays; the optional tag labels a block for later retrieval
        # (the 3D builder tags its inter-layer conductances).
        self._bulk_edges: list[
            tuple[np.ndarray, np.ndarray, np.ndarray, str | None]
        ] = []

    def add_node(self, node: NodeSpec) -> int:
        """Add a node; returns its index.

        Raises:
            ConfigurationError: on duplicate names.
        """
        if node.name in self._index:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self._nodes.append(node)
        self._index[node.name] = len(self._nodes) - 1
        return len(self._nodes) - 1

    def add_conductance(self, a: str, b: str, conductance: float) -> None:
        """Connect nodes ``a`` and ``b`` with ``conductance`` W/K."""
        if conductance <= 0:
            raise ConfigurationError(
                f"conductance between {a!r} and {b!r} must be positive, "
                f"got {conductance}"
            )
        i, j = self.index_of(a), self.index_of(b)
        if i == j:
            raise ConfigurationError(f"self-loop on node {a!r}")
        self._edges.append((i, j, conductance))

    def add_resistance(self, a: str, b: str, resistance: float) -> None:
        """Connect ``a`` and ``b`` with a thermal resistance in K/W."""
        if resistance <= 0:
            raise ConfigurationError(
                f"resistance between {a!r} and {b!r} must be positive, "
                f"got {resistance}"
            )
        self.add_conductance(a, b, 1.0 / resistance)

    def add_conductances(
        self,
        a_indices: Sequence[int],
        b_indices: Sequence[int],
        conductances: Sequence[float],
        tag: str | None = None,
    ) -> None:
        """Bulk edge insertion by node *index* (the vectorised assembly
        path the floorplan builder uses; equivalent to repeated
        :meth:`add_conductance` calls).  A ``tag`` labels the block for
        :meth:`tagged_edge_arrays`.

        Raises:
            ConfigurationError: on shape mismatches, out-of-range
                indices, self-loops, or non-positive conductances.
        """
        i = np.asarray(a_indices, dtype=np.intp)
        j = np.asarray(b_indices, dtype=np.intp)
        g = np.asarray(conductances, dtype=float)
        if not (i.shape == j.shape == g.shape) or i.ndim != 1:
            raise ConfigurationError(
                f"edge arrays must be 1-D and congruent, got shapes "
                f"{i.shape}/{j.shape}/{g.shape}"
            )
        if i.size == 0:
            return
        n = self.size
        if i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n:
            raise ConfigurationError(
                f"edge indices must be in [0, {n})"
            )
        if (i == j).any():
            raise ConfigurationError(
                f"self-loop on node {self._nodes[int(i[(i == j).argmax()])].name!r}"
            )
        if not (g > 0).all():
            bad = int((~(g > 0)).argmax())
            raise ConfigurationError(
                f"conductance between {self._nodes[int(i[bad])].name!r} and "
                f"{self._nodes[int(j[bad])].name!r} must be positive, "
                f"got {g[bad]}"
            )
        self._bulk_edges.append((i.copy(), j.copy(), g.copy(), tag))

    def add_resistances(
        self,
        a_indices: Sequence[int],
        b_indices: Sequence[int],
        resistances: Sequence[float],
        tag: str | None = None,
    ) -> None:
        """Bulk :meth:`add_resistance` by node index (K/W each)."""
        r = np.asarray(resistances, dtype=float)
        if r.size and not (r > 0).all():
            bad = int((~(r > 0)).argmax())
            raise ConfigurationError(
                f"resistance at bulk position {bad} must be positive, "
                f"got {r[bad]}"
            )
        self.add_conductances(a_indices, b_indices, 1.0 / r, tag=tag)

    def index_of(self, name: str) -> int:
        """Index of the named node."""
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError(f"no node named {name!r}") from None

    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def node_names(self) -> list[str]:
        """Node names in index order."""
        return [n.name for n in self._nodes]

    def capacitances(self) -> np.ndarray:
        """Per-node heat capacitances (J/K), index order."""
        return np.array([n.capacitance for n in self._nodes])

    def ambient_conductances(self) -> np.ndarray:
        """Per-node ambient conductances (W/K), index order."""
        return np.array([n.ambient_conductance for n in self._nodes])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge as flat ``(i, j, g)`` arrays (scalar + bulk adds)."""
        parts_i: list[np.ndarray] = []
        parts_j: list[np.ndarray] = []
        parts_g: list[np.ndarray] = []
        if self._edges:
            scalar = np.array(self._edges, dtype=float).reshape(-1, 3)
            parts_i.append(scalar[:, 0].astype(np.intp))
            parts_j.append(scalar[:, 1].astype(np.intp))
            parts_g.append(scalar[:, 2])
        for i, j, g, _ in self._bulk_edges:
            parts_i.append(i)
            parts_j.append(j)
            parts_g.append(g)
        if not parts_i:
            empty_idx = np.empty(0, dtype=np.intp)
            return empty_idx, empty_idx.copy(), np.empty(0)
        return (
            np.concatenate(parts_i),
            np.concatenate(parts_j),
            np.concatenate(parts_g),
        )

    def tagged_edge_arrays(
        self, tag: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every bulk edge added under ``tag``, as ``(i, j, g)`` arrays.

        Returns empty arrays when nothing carries the tag (e.g. asking a
        single-layer model for its inter-layer edges).
        """
        parts = [(i, j, g) for i, j, g, t in self._bulk_edges if t == tag]
        if not parts:
            empty_idx = np.empty(0, dtype=np.intp)
            return empty_idx, empty_idx.copy(), np.empty(0)
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        )

    def conductance_matrix(self) -> sparse.csr_matrix:
        """The steady-state system matrix ``A = L + diag(g_amb)`` (W/K)."""
        n = self.size
        if n == 0:
            raise ConfigurationError("network has no nodes")
        i, j, g = self.edge_arrays()
        diag = self.ambient_conductances().copy()
        np.add.at(diag, i, g)
        np.add.at(diag, j, g)
        rows = np.concatenate([i, j, np.arange(n, dtype=np.intp)])
        cols = np.concatenate([j, i, np.arange(n, dtype=np.intp)])
        vals = np.concatenate([-g, -g, diag])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def validate(self) -> None:
        """Check the network is well-posed for steady-state solving.

        Every node must reach the ambient through some conduction path,
        otherwise ``A`` is singular and the steady state undefined.

        Raises:
            ConfigurationError: listing unreachable nodes.
        """
        n = self.size
        ambient = self.ambient_conductances() > 0
        if not ambient.any():
            raise ConfigurationError("no node conducts to the ambient")
        i, j, _ = self.edge_arrays()
        adjacency = sparse.coo_matrix(
            (np.ones(i.size), (i, j)), shape=(n, n)
        )
        _, labels = connected_components(adjacency, directed=False)
        reached = np.isin(labels, np.unique(labels[ambient]))
        if not reached.all():
            orphans = [self._nodes[k].name for k in np.flatnonzero(~reached)[:11]]
            raise ConfigurationError(
                f"nodes with no path to ambient: {orphans[:10]}"
                + ("..." if len(orphans) > 10 else "")
            )
