"""Solver backends: one shared factorization layer for every thermal solve.

Every thermal computation in the library — steady state, the influence
matrix, backward-Euler transients, TSP tables — reduces to solving
``A x = b`` against a symmetric positive-definite RC conductance matrix,
usually for *many* right-hand sides at once.  This module isolates the
"factorize once, solve many" step behind one small interface so the
:class:`repro.thermal.model.ThermalModel` can own a single factorization
per matrix and share it across :class:`~repro.thermal.steady_state.
SteadyStateSolver`, :class:`~repro.thermal.transient.TransientSimulator`
and :class:`~repro.perf.batched.BatchedSteadyState`.

Two interchangeable backends:

* ``"dense"``  — LAPACK LU on the densified matrix.  O(n^3) factorize,
  BLAS-3 solves; the independent reference the property suites pin the
  sparse backend against.
* ``"sparse"`` — SuperLU on the CSC matrix in symmetric mode
  (``MMD_AT_PLUS_A`` ordering), which roughly halves the fill of the
  default column ordering on RC meshes.  The default.

Backends solve single vectors (``(n,)``) and whole RHS batches
(``(n, k)``) through the same :meth:`Factorization.solve` call; batched
solves go to the underlying library as one multi-RHS operation, not a
Python loop.

Selection: pass ``backend=`` to :class:`~repro.thermal.model.
ThermalModel` (a name or a backend object), or set the process default
with :func:`set_default_backend` / the ``REPRO_THERMAL_BACKEND``
environment variable (the CLI's ``--thermal-backend`` flag sets both so
worker processes inherit it).
"""

from __future__ import annotations

import importlib.util
import os
from typing import Optional, Protocol, Union, runtime_checkable

import numpy as np
from scipy import linalg as dense_linalg
from scipy import sparse
from scipy.sparse.linalg import splu

from repro import obs
from repro.errors import ConfigurationError

#: Environment variable overriding the process-default backend name.
BACKEND_ENV_VAR = "REPRO_THERMAL_BACKEND"

#: Fallback default when neither :func:`set_default_backend` nor the
#: environment variable chose one.
FACTORY_DEFAULT = "sparse"


@runtime_checkable
class Factorization(Protocol):
    """A frozen factorization of one system matrix ``A``."""

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for one vector (``(n,)``) or a whole
        RHS batch (``(n, k)``, solved as one multi-RHS operation)."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class SolverBackend(Protocol):
    """Factory turning system matrices into :class:`Factorization` s."""

    name: str

    def factorize(self, matrix) -> Factorization:
        """Factorize a (sparse or dense) SPD system matrix."""
        ...  # pragma: no cover - protocol


def _as_2d(rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """View ``rhs`` as (n, k), remembering whether it was a vector."""
    r = np.asarray(rhs, dtype=float)
    if r.ndim == 1:
        return r[:, None], True
    if r.ndim == 2:
        return r, False
    raise ConfigurationError(
        f"rhs must be a vector or a (n, k) batch, got shape {r.shape}"
    )


class DenseFactorization:
    """LAPACK LU factors of the densified system matrix."""

    def __init__(self, matrix) -> None:
        a = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, dtype=float)
        self._lu_piv = dense_linalg.lu_factor(a)
        obs.incr("solver.cost.factorizations")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        r, was_vector = _as_2d(rhs)
        obs.incr("solver.cost.rhs_columns", r.shape[1])
        x = dense_linalg.lu_solve(self._lu_piv, r)
        return x[:, 0] if was_vector else x


class DenseBackend:
    """The dense LAPACK reference backend."""

    name = "dense"

    def factorize(self, matrix) -> DenseFactorization:
        return DenseFactorization(matrix)


class SparseFactorization:
    """SuperLU factors in symmetric mode (MMD on ``A + A^T``)."""

    def __init__(self, matrix) -> None:
        csc = sparse.csc_matrix(matrix)
        self._lu = splu(
            csc,
            permc_spec="MMD_AT_PLUS_A",
            options={"SymmetricMode": True},
        )
        obs.incr("solver.cost.factorizations")

    @property
    def superlu(self):
        """The underlying :class:`scipy.sparse.linalg.SuperLU` object."""
        return self._lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        r = np.asarray(rhs, dtype=float)
        if r.ndim == 2:
            obs.incr("solver.cost.rhs_columns", r.shape[1])
            # One multi-RHS triangular pass; SuperLU wants column-major.
            return self._lu.solve(np.asfortranarray(r))
        if r.ndim != 1:
            raise ConfigurationError(
                f"rhs must be a vector or a (n, k) batch, got shape {r.shape}"
            )
        obs.incr("solver.cost.rhs_columns")
        return self._lu.solve(r)


class SparseBackend:
    """The sparse SuperLU backend (the default)."""

    name = "sparse"

    def factorize(self, matrix) -> SparseFactorization:
        return SparseFactorization(matrix)


def numba_available() -> bool:
    """True when numba is installed.  No backend uses it; the e2e
    benchmark records it with each run."""
    return importlib.util.find_spec("numba") is not None


_BACKENDS: dict[str, SolverBackend] = {
    "dense": DenseBackend(),
    "sparse": SparseBackend(),
}

_default_name: Optional[str] = None


def backend_names() -> tuple[str, ...]:
    """Names of every selectable backend, in registration order."""
    return tuple(_BACKENDS)


def get_backend(name: str) -> SolverBackend:
    """The backend registered under ``name``.

    Raises:
        ConfigurationError: for unknown names.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown thermal backend {name!r}; "
            f"choose from {', '.join(_BACKENDS)}"
        ) from None


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-default backend name.

    Raises:
        ConfigurationError: for unknown names.
    """
    global _default_name
    if name is not None:
        get_backend(name)
    _default_name = name


def default_backend_name() -> str:
    """The effective default backend name.

    Precedence: :func:`set_default_backend`, then the
    ``REPRO_THERMAL_BACKEND`` environment variable, then ``"sparse"``.

    Raises:
        ConfigurationError: when the environment variable names an
            unknown backend.
    """
    if _default_name is not None:
        return _default_name
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        get_backend(env)
        return env
    return FACTORY_DEFAULT


def resolve_backend(
    backend: Union[None, str, SolverBackend],
) -> SolverBackend:
    """Normalize a backend spec (``None`` / name / object) to an object."""
    if backend is None:
        return get_backend(default_backend_name())
    if isinstance(backend, str):
        return get_backend(backend)
    if not hasattr(backend, "factorize"):
        raise ConfigurationError(
            f"backend must be a name or provide factorize(), got {backend!r}"
        )
    return backend
