import numpy as np
import pytest

from lindbladprep.linalg import DensityMatrix, HermitianOperator
from lindbladprep.models import SparseOperator

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# (tau, t_final, the refusal of linalg.step_count); in the random-coupling
# experiments each used to fail later, in another way
BAD_TIMES = [
    pytest.param(0.0, 1.0, "tau must be finite and positive, got 0.0", id="tau-zero"),
    pytest.param(0.1, 0.0, "t_final must be finite and positive, got 0.0", id="t_final-zero"),
    pytest.param(np.nan, 1.0, "tau must be finite and positive, got nan", id="tau-nan"),
    pytest.param(0.1, np.nan, "t_final must be finite and positive, got nan", id="t_final-nan"),
    pytest.param(np.inf, 1.0, "tau must be finite and positive, got inf", id="tau-inf"),
    pytest.param(0.1, np.inf, "t_final must be finite and positive, got inf", id="t_final-inf"),
    pytest.param(-0.1, -1.0, "tau must be finite and positive, got -0.1", id="negative"),
    # used to end in OverflowError: t_final / tau is inf
    pytest.param(5e-324, 1.0, "inf steps does not fit a 64-bit count", id="steps-overflow"),
    # used to return a 301-digit step count and start that many RK4 steps
    pytest.param(1e-300, 1.0, r"1e\+300 steps does not fit a 64-bit count", id="steps-beyond-64-bit"),
]


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


def sparse(matrix) -> SparseOperator:
    """The terms of a dense matrix, one per nonzero entry."""
    m = np.asarray(matrix)
    rows, cols = np.nonzero(m)
    return SparseOperator(m.shape[0], rows, cols, m[rows, cols])


def pattern(op: SparseOperator) -> np.ndarray:
    """The ``dim x dim`` boolean pattern of the nonzero terms of ``op``."""
    out = np.zeros((op.dim, op.dim), dtype=bool)
    nonzero = op.vals != 0
    out[op.rows[nonzero], op.cols[nonzero]] = True
    return out


def random_state(rng, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

