"""Jump-operator construction and its one-ancilla dilation.

Two routes to the same operator:

* ``exact_jump`` weights the coupling matrix in the energy basis by the
  frequency filter, ``K = V (F o (V^dag A V)) V^dag`` with
  ``F_ij = fhat(lam_i - lam_j)``;
* ``quadrature_jump`` evaluates the trapezoid sum
  ``K_s = sum_l w_l f(s_l) e^{iHs_l} A e^{-iHs_l}`` in the eigenbasis,
  where each node reduces to an entrywise phase multiply, so the whole sum
  is an "effective filter" ``F_s(w) = sum_l w_l f(s_l) e^{i w s_l}``
  applied to the same matrix.

With the clamp on, the exact form annihilates the ground state and is
strictly lower triangular in energy order (transitions only lower energy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterParams, f_hat, f_l1_estimate, f_time, quadrature_grid
from .linalg import HermitianOperator, SpectralDecomposition, max_abs

__all__ = ["JumpOperator", "DilatedJump", "exact_jump", "quadrature_jump", "dilate", "ground_residual"]


@dataclass(frozen=True)
class JumpOperator:
    """Jump matrix plus provenance (how it was built)."""

    matrix: np.ndarray
    provenance: str  # "exact_frequency" | "quadrature"
    params: FilterParams

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("jump operator has non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))


@dataclass(frozen=True)
class DilatedJump:
    """Hermitian dilation [[0, K^dag], [K, 0]]; ancilla is the leading qubit."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = m.shape[0] // 2
        if max_abs(m[:n, :n]) != 0.0 or max_abs(m[n:, n:]) != 0.0:
            raise ValueError("dilated jump must have zero diagonal blocks")
        if max_abs(m - m.conj().T) > 1e-12 * max(1.0, max_abs(m)):
            raise ValueError("dilated jump must be Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _coupling_in_eigenbasis(spec: SpectralDecomposition, a: HermitianOperator) -> np.ndarray:
    if spec.dim != a.dim:
        raise ValueError("spectral decomposition and coupling dimension mismatch")
    v = spec.eigenvectors
    return v.conj().T @ a.matrix @ v


def exact_jump(
    spec: SpectralDecomposition, a: HermitianOperator, p: FilterParams
) -> JumpOperator:
    """Frequency-domain jump operator (honors ``p.clamp_nonnegative``)."""
    a_eig = _coupling_in_eigenbasis(spec, a)
    omega = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
    fmat = f_hat(omega, p)
    v = spec.eigenvectors
    k = v @ (fmat * a_eig) @ v.conj().T
    return JumpOperator(k, "exact_frequency", p)


def quadrature_jump(
    spec: SpectralDecomposition,
    a: HermitianOperator,
    p: FilterParams,
    *,
    grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> JumpOperator:
    """Trapezoid-rule jump operator evaluated in the eigenbasis.

    ``grid`` overrides the (nodes, weights) pair, used by the verification
    harness to inject deliberately corrupted weights.
    """
    a_eig = _coupling_in_eigenbasis(spec, a)
    nodes, weights = quadrature_grid(p) if grid is None else grid
    fvals = f_time(nodes, p)
    omega = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
    filt = np.zeros(omega.shape, dtype=complex)
    # one buffer for every node's term: a fresh n^2 temporary per node is
    # mmapped and faulted in anew once it passes malloc's mmap threshold
    term = np.empty(omega.shape, dtype=complex)
    for s_l, w_l, f_l in zip(nodes, weights, fvals):
        np.multiply(omega, 1j * s_l, out=term)
        np.exp(term, out=term)
        np.multiply(w_l * f_l, term, out=term)
        filt += term
    del term  # freed before the n^2 products below
    v = spec.eigenvectors
    k = v @ (filt * a_eig) @ v.conj().T
    jump = JumpOperator(k, "quadrature", p)
    bound = 1.1 * f_l1_estimate(p) * a.norm()
    if jump.norm() > bound + 1e-12:
        raise ValueError(
            f"quadrature jump norm {jump.norm():.3e} exceeds L1 bound {bound:.3e}"
        )
    return jump


def dilate(k: JumpOperator) -> DilatedJump:
    """Embed K into the Hermitian [[0, K^dag], [K, 0]] with one ancilla."""
    n = k.dim
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[:n, n:] = k.matrix.conj().T
    m[n:, :n] = k.matrix
    return DilatedJump(m)


def ground_residual(k: JumpOperator, spec: SpectralDecomposition) -> float:
    """|| K |psi_0> ||_2 — zero iff the ground state is dark."""
    return float(np.linalg.norm(k.matrix @ spec.ground_state))
