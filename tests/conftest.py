import numpy as np
import pytest

from lindbladprep.linalg import DensityMatrix, HermitianOperator


def random_hermitian(rng, dim: int) -> HermitianOperator:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((x + x.conj().T) / 2)


def random_density(rng, dim: int) -> DensityMatrix:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_state(rng, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

