"""Oracle-grade evolutions the circuit-level approximations are tested against.

* ``evolve_ode``: fixed-step RK4 on the master equation
  ``d rho/dt = -i[H, rho] + K rho K^dag - {K^dag K, rho}/2``;
* ``superoperator_matrix`` / ``superoperator_expm_step``: the vectorized
  generator and its dense exponential (small dimensions only);
* ``exact_dilated_step``: one exact dilated-unitary step
  ``Tr_a exp(-i Ktilde sqrt(tau)) [|0><0| x rho] exp(i Ktilde sqrt(tau))``.

All steps re-Hermitize their output and are trace preserving to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jump import DilatedJump, JumpOperator
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    LinalgError,
    evolution_unitary,
    hermitian_eig,
    partial_trace_ancilla,
)

__all__ = [
    "LindbladSystem",
    "lindbladian_apply",
    "evolve_ode",
    "superoperator_matrix",
    "superoperator_expm_step",
    "exact_dilated_step",
]

# Superoperator exponentials are only built for tiny systems.
_SUPEROP_MAX_DIM = 16


@dataclass(frozen=True)
class LindbladSystem:
    """Generator data: Hamiltonian and jump operator."""

    h: HermitianOperator
    k: JumpOperator

    def __post_init__(self):
        if self.h.dim != self.k.dim:
            raise ValueError("Hamiltonian and jump operator dimension mismatch")

    @property
    def dim(self) -> int:
        return self.h.dim


def lindbladian_apply(sys: LindbladSystem, rho: np.ndarray) -> np.ndarray:
    """Apply the generator to a (not necessarily normalized) matrix."""
    h, k = sys.h.matrix, sys.k.matrix
    kdk = k.conj().T @ k
    out = k @ rho @ k.conj().T - 0.5 * (kdk @ rho + rho @ kdk)
    return out - 1j * (h @ rho - rho @ h)


def _rk4_step(sys: LindbladSystem, rho: np.ndarray, dt: float) -> np.ndarray:
    k1 = lindbladian_apply(sys, rho)
    k2 = lindbladian_apply(sys, rho + 0.5 * dt * k1)
    k3 = lindbladian_apply(sys, rho + 0.5 * dt * k2)
    k4 = lindbladian_apply(sys, rho + dt * (k3))
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def evolve_ode(
    sys: LindbladSystem, rho0: DensityMatrix, t_final: float, dt: float
) -> DensityMatrix:
    """Fixed-step RK4 integration of the master equation up to ``t_final``.

    Each step is re-Hermitized and trace-renormalized; a per-step trace
    drift beyond 1e-6 aborts the run (the step size is too large for the
    generator's stiffness).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    rho = np.array(rho0.matrix, dtype=complex)
    if t_final == 0:
        return rho0
    n_steps = max(1, int(np.ceil(t_final / dt - 1e-12)))
    step = t_final / n_steps
    for _ in range(n_steps):
        rho = _rk4_step(sys, rho, step)
        rho = (rho + rho.conj().T) / 2
        tr = float(np.trace(rho).real)
        if not np.isfinite(tr) or abs(tr - 1.0) > 1e-6:
            raise LinalgError(
                f"trace drifted to {tr} in one RK4 step; decrease dt"
            )
        rho /= tr
    return DensityMatrix(rho, check_positivity=False)


def superoperator_matrix(sys: LindbladSystem) -> np.ndarray:
    """Column-stacking matrix of the generator (dim <= 16 only).

    With ``vec`` stacking columns, ``vec(L[rho]) = M vec(rho)`` where
    ``M = -i (I x H - H^T x I) + conj(K) x K
          - (I x K^dag K + (K^dag K)^T x I) / 2``.
    """
    n = sys.dim
    if n > _SUPEROP_MAX_DIM:
        raise ValueError(f"superoperator matrix restricted to dim <= {_SUPEROP_MAX_DIM}")
    eye = np.eye(n, dtype=complex)
    h, k = sys.h.matrix, sys.k.matrix
    kdk = k.conj().T @ k
    m = np.kron(k.conj(), k) - 0.5 * (np.kron(eye, kdk) + np.kron(kdk.T, eye))
    return m - 1j * (np.kron(eye, h) - np.kron(h.T, eye))


def superoperator_expm_step(
    sys: LindbladSystem, rho: DensityMatrix, t: float
) -> DensityMatrix:
    """Exact channel ``exp(L t)`` via the dense superoperator exponential."""
    import scipy.linalg  # kept off the import path of ``run``

    m = superoperator_matrix(sys)
    vec = rho.matrix.reshape(-1, order="F")
    out = (scipy.linalg.expm(m * t) @ vec).reshape(rho.matrix.shape, order="F")
    out = (out + out.conj().T) / 2
    return DensityMatrix(out / np.trace(out).real, check_positivity=False)


def exact_dilated_step(
    kd: DilatedJump, rho: DensityMatrix, tau: float
) -> DensityMatrix:
    """One exact single-ancilla step: dilate, evolve, trace out.

    CPTP by construction (unitary conjugation of ``|0><0| x rho`` followed
    by partial trace).
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    n = kd.dim // 2
    spec = hermitian_eig(HermitianOperator(kd.matrix))
    # only the |0>-ancilla column block acts on rho
    block = evolution_unitary(spec, np.sqrt(tau))[:, :n]
    big = block @ rho.matrix @ block.conj().T
    out = partial_trace_ancilla(big)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out, check_positivity=False)
