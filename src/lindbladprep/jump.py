"""Jump-operator construction and its one-ancilla dilation.

Two routes to the same operator:

* ``exact_jump`` weights the coupling matrix in the energy basis by the
  frequency filter, ``K = V (F o (V^dag A V)) V^dag`` with
  ``F_ij = fhat(lam_i - lam_j)``;
* ``quadrature_jump`` evaluates the trapezoid sum
  ``K_s = sum_l w_l f(s_l) e^{iHs_l} A e^{-iHs_l}`` in the eigenbasis,
  where it is the filter ``F_s = E diag(c) E^dag``, ``E_il = e^{i lam_i s_l}``,
  ``c_l = w_l f(s_l)``, applied to the same matrix.

With the clamp on, the exact form annihilates the ground state and is
strictly lower triangular in energy order (transitions only lower energy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterParams, f_hat, f_l1_estimate, f_time, quadrature_grid
from .linalg import HermitianOperator, SpectralDecomposition, max_abs

__all__ = [
    "JumpOperator", "DilatedJump", "coupling_in_eigenbasis", "exact_filter", "quadrature_filter",
    "check_l1_bound", "exact_jump", "quadrature_jump", "dilate", "ground_residual",
]


@dataclass(frozen=True)
class JumpOperator:
    """Jump matrix: finite, read-only."""

    matrix: np.ndarray

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


def coupling_in_eigenbasis(spec: SpectralDecomposition, a: HermitianOperator) -> np.ndarray:
    """``V^dag A V``: the coupling in the energy basis of ``spec``."""
    if spec.dim != a.dim:
        raise ValueError("spectral decomposition and coupling dimension mismatch")
    v = spec.eigenvectors
    return v.conj().T @ a.matrix @ v


def exact_filter(lam: np.ndarray, p: FilterParams) -> np.ndarray:
    """``F_ij = fhat(lam_i - lam_j)``."""
    return f_hat(lam[:, None] - lam[None, :], p)


def quadrature_filter(lam: np.ndarray, p: FilterParams, grid=None) -> np.ndarray:
    """``F_s = E diag(c) E^dag``, ``E_il = e^{i lam_i s_l}``, ``c_l = w_l f(s_l)``
    over ``grid`` (default: the rule's): one ``(n, L) @ (L, n)`` product."""
    nodes, weights = quadrature_grid(p) if grid is None else grid
    e = np.exp(1j * np.multiply.outer(lam, nodes))
    return (e * (weights * f_time(nodes, p))) @ e.conj().T


def check_l1_bound(norm_k: float, norm_a: float, p: FilterParams) -> None:
    """Refuse a quadrature jump whose norm exceeds ``1.1 |f|_1 |A|``."""
    bound = 1.1 * f_l1_estimate(p) * norm_a
    if norm_k > bound + 1e-12:
        raise ValueError(f"quadrature jump norm {norm_k:.3e} exceeds L1 bound {bound:.3e}")


def _jump(spec: SpectralDecomposition, a: HermitianOperator, filt: np.ndarray) -> JumpOperator:
    """``V (filt o V^dag A V) V^dag``: the path both jumps share."""
    v = spec.eigenvectors
    return JumpOperator(v @ (filt * coupling_in_eigenbasis(spec, a)) @ v.conj().T)


def exact_jump(spec: SpectralDecomposition, a: HermitianOperator, p: FilterParams) -> JumpOperator:
    """Frequency-domain jump operator (honors ``p.clamp_nonnegative``)."""
    return _jump(spec, a, exact_filter(spec.eigenvalues, p))


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
    jump = _jump(spec, a, quadrature_filter(spec.eigenvalues, p, grid))
    check_l1_bound(jump.norm(), a.norm(), p)
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
