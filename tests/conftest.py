import numpy as np
import pytest

from lindbladprep.linalg import DensityMatrix, HermitianOperator

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, dim: int) -> HermitianOperator:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((x + x.conj().T) / 2)


def random_density(rng, dim: int) -> DensityMatrix:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def ground_projector(spec) -> np.ndarray:
    """Projector onto the eigenvectors within 1e-9 of the lowest eigenvalue."""
    vg = spec.eigenvectors[:, spec.eigenvalues <= spec.eigenvalues[0] + 1e-9]
    return vg @ vg.conj().T


def random_state(rng, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

