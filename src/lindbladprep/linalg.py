"""Dense complex linear-algebra kernel shared by all other modules.

Everything here operates on plain ``numpy`` complex arrays.  The thin wrapper
classes (:class:`HermitianOperator`, :class:`SpectralDecomposition`,
:class:`DensityMatrix`) enforce the numerical invariants that the rest of the
code relies on: Hermiticity, ascending eigenvalue order, a deterministic
eigenvector phase convention, unit trace and positivity.  All objects are
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "DensityMatrix",
    "hermitian_eig",
    "evolution_unitary",
    "partial_trace_ancilla",
    "trace_norm",
    "frob",
    "max_abs",
    "mean_se",
    "step_count",
]

# The most one Monte Carlo step may move a density matrix's trace, a
# trajectory's norm or a random-coupling rep's trace; k steps, k times it.
STEP_DRIFT = 1e-9

# Relative tolerance for Hermiticity at construction.
_HERM_RTOL = 1e-12
_HERM_BLOCK_ROWS = 64  # rows per block of the Hermiticity checks


class LinalgError(RuntimeError):
    """Raised when a dense kernel fails (non-convergence, bad contract)."""


def frob(m: np.ndarray) -> float:
    """Frobenius norm; finite entries whose squares overflow are scaled down first."""
    with np.errstate(over="ignore"):
        out = float(np.linalg.norm(m))
    if np.isinf(out) and np.isfinite(big := max_abs(m)):
        out = big * float(np.linalg.norm(m / big))
    return out


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-abs norm."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def mean_se(samples: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error ``std(ddof=1) / sqrt(n)`` over the n reps along
    ``axis``; one rep has an error of exactly 0."""
    n = samples.shape[axis]
    return samples.mean(axis=axis), samples.std(axis=axis, ddof=min(1, n - 1)) / np.sqrt(n)


def step_count(tau: float, total: float, names: tuple[str, str]) -> int:
    """The number of ``tau`` steps that make the span ``total``, whose names
    in the messages are ``names``; ValueError unless both are finite and
    positive, the count fits 64 bits and ``total`` is a positive multiple of
    ``tau`` to within 1e-9 of a step."""
    for name, value in zip(names, (tau, total)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    step, span = names
    steps = total / tau
    if not steps < 2**63:
        raise ValueError(f"{span} / {step} = {steps:.3g} steps does not fit a 64-bit count")
    n_steps = round(steps)
    if n_steps < 1 or abs(steps - n_steps) > 1e-9:
        raise ValueError(f"{span} must be a positive multiple of {step}")
    return n_steps


def _hermitian_part(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``(M + M^dag)/2`` and ``max|M - M^dag|``, in row blocks: temporaries stay block-sized."""
    out, defect = np.empty_like(m), 0.0
    for r in range(0, m.shape[0], _HERM_BLOCK_ROWS):
        rows, rows_dag = m[r : r + _HERM_BLOCK_ROWS], m[:, r : r + _HERM_BLOCK_ROWS].conj().T
        defect = max(defect, max_abs(rows - rows_dag))
        out[r : r + _HERM_BLOCK_ROWS] = (rows + rows_dag) / 2
    return out, defect


def _as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise LinalgError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.view(float))):
        raise LinalgError("matrix contains NaN/Inf entries")
    return a


@dataclass(frozen=True)
class HermitianOperator:
    """A dense Hermitian matrix, symmetrized on build.

    Construction rejects matrices whose anti-Hermitian part exceeds
    ``1e-12`` relative to the largest entry; below that threshold the input
    is replaced by its Hermitian part so downstream eigensolves see an
    exactly Hermitian array.
    """

    matrix: np.ndarray

    def __init__(self, matrix) -> None:
        m = _as_complex_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise LinalgError(f"Hermitian operator must be square, got {m.shape}")
        scale = max(max_abs(m), 1.0)
        m, defect = _hermitian_part(m)
        if defect > _HERM_RTOL * scale:
            raise LinalgError(
                f"matrix is not Hermitian: max|M - M^dag| = {defect:.3e} "
                f"(allowed {_HERM_RTOL * scale:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        """Spectral norm (largest |eigenvalue|)."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-data of a Hermitian operator: H = V diag(eigenvalues) V^dag.

    ``eigenvalues`` are ascending, ``eigenvectors`` holds the eigenvectors
    as columns, and ``gap = eigenvalues[1] - eigenvalues[0]`` (0 for a
    one-dimensional space).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap: float = field(init=False)

    def __post_init__(self):
        evals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=complex)
        if np.any(np.diff(evals) < 0):
            raise LinalgError("eigenvalues must be sorted ascending")
        evals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenvectors", vecs)
        gap = float(evals[1] - evals[0]) if evals.size > 1 else 0.0
        object.__setattr__(self, "gap", gap)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def ground_state(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    @property
    def spectral_norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite (to tolerance) state."""

    matrix: np.ndarray

    def __init__(self, matrix, *, check_positivity: bool = True) -> None:
        m = _as_complex_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise LinalgError("density matrix must be square")
        scale = max(max_abs(m), 1.0)
        m, defect = _hermitian_part(m)
        if defect > 1e-9 * scale:
            raise LinalgError("density matrix is not Hermitian")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-9:
            raise LinalgError(f"density matrix trace {tr} deviates from 1")
        if check_positivity:
            lo = float(np.min(np.linalg.eigvalsh(m)))
            if lo < -1e-9:
                raise LinalgError(f"density matrix has eigenvalue {lo:.3e} < -1e-9")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, psi: np.ndarray) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


def hermitian_eig(op: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition with a deterministic phase convention.

    Each eigenvector is rotated so that its largest-magnitude component is
    real and positive, which keeps repeated runs bit-identical even when
    LAPACK returns an arbitrary phase.
    """
    try:
        evals, vecs = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise LinalgError(f"eigensolver failed to converge: {exc}") from exc
    vecs = np.array(vecs, dtype=complex)
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs *= np.abs(pivot) / pivot
    spec = SpectralDecomposition(evals, vecs)
    scale = max(1.0, frob(op.matrix))
    if frob(op.matrix @ vecs - vecs * evals) > 1e-10 * scale:
        raise LinalgError("eigendecomposition residual too large")
    if max_abs(vecs.conj().T @ vecs - np.eye(op.dim)) > 1e-10:
        raise LinalgError("eigenvectors not orthonormal")
    return spec


def evolution_unitary(spec: SpectralDecomposition, t: float) -> np.ndarray:
    """exp(-i H t) assembled from the spectral decomposition of H."""
    if not np.isfinite(t):
        raise LinalgError("evolution time must be finite")
    phases = np.exp(-1j * spec.eigenvalues * t)
    u = (spec.eigenvectors * phases) @ spec.eigenvectors.conj().T
    return u


def partial_trace_ancilla(rho_dilated: np.ndarray) -> np.ndarray:
    """Trace out a leading qubit: [[r00, r01], [r10, r11]] -> r00 + r11."""
    m = _as_complex_matrix(rho_dilated)
    d = m.shape[0]
    if m.shape[0] != m.shape[1] or d % 2 != 0:
        raise LinalgError("dilated state must be square with even dimension")
    n = d // 2
    return m[:n, :n] + m[n:, n:]


def trace_norm(m: np.ndarray) -> float:
    """Schatten 1-norm (sum of singular values)."""
    a = _as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise LinalgError("trace norm expects a square matrix")
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise LinalgError(f"SVD failed to converge: {exc}") from exc
    return float(np.sum(sv))

