import numpy as np
import pytest
import scipy.linalg

from lindbladprep.linalg import (
    DensityMatrix,
    HermitianOperator,
    LinalgError,
    evolution_unitary,
    frob,
    hermitian_eig,
    partial_trace_ancilla,
    trace_norm,
)
from lindbladprep.models import build_tfim

from conftest import PAULI_Z, random_density, random_hermitian


class TestHermitianOperator:
    def test_symmetrized_on_build(self, rng):
        h = random_hermitian(rng, 6)
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(LinalgError):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_nan(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(LinalgError):
            HermitianOperator(m)

    @pytest.mark.parametrize("dim", [5, 64, 300, 1024])
    def test_blockwise_symmetrization_equals_whole_matrix(self, rng, dim):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = x + x.conj().T
        m[np.triu_indices(dim, 1)] *= 1 + 1e-14  # a defect below the tolerance
        assert np.array_equal(HermitianOperator(m).matrix, (m + m.conj().T) / 2)

    @pytest.mark.parametrize("entry", [(299, 299), (298, 299)])
    def test_defect_in_last_row_block_rejected(self, entry):
        # M - M^dag is nonzero only in rows 298-299, in the last (partial) row block
        m = np.eye(300, dtype=complex)
        m[entry] += 1e-6j
        with pytest.raises(LinalgError, match="not Hermitian"):
            HermitianOperator(m)

    def test_immutable(self, rng):
        h = random_hermitian(rng, 3)
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0


class TestHermitianEig:
    def test_pauli_z(self):
        spec = hermitian_eig(HermitianOperator(PAULI_Z))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        assert spec.gap == pytest.approx(2.0)

    def test_identity_zero_gap(self):
        spec = hermitian_eig(HermitianOperator(np.eye(2)))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])
        assert spec.gap == 0.0

    def test_tfim2_against_char_poly_oracle(self):
        # independent oracle: roots of the characteristic polynomial of the
        # dense 4x4 TFIM matrix, computed via companion-matrix eigenvalues
        h = build_tfim(2, 1.2).dense()
        coeffs = np.poly(h.matrix)
        roots = np.sort_complex(np.roots(coeffs)).real
        spec = hermitian_eig(h)
        assert np.allclose(np.sort(roots), spec.eigenvalues, atol=1e-10)

    def test_reconstruction_up_to_512(self, rng):
        for dim in (2, 17, 64, 512):
            h = random_hermitian(rng, dim)
            spec = hermitian_eig(h)
            scale = max(1.0, np.linalg.norm(h.matrix))
            assert np.linalg.norm(spec.reconstruct() - h.matrix) <= 1e-9 * scale
            assert np.max(np.abs(spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(dim))) <= 1e-10

    def test_phase_convention_deterministic(self, rng):
        h = random_hermitian(rng, 8)
        s1 = hermitian_eig(h)
        s2 = hermitian_eig(HermitianOperator(h.matrix.copy()))
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
        # pivot components are real positive
        for k in range(8):
            col = s1.eigenvectors[:, k]
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.imag == pytest.approx(0.0, abs=1e-15)
            assert pivot.real > 0


    def test_huge_entries_keep_a_finite_residual_scale(self):
        """Squares of entries past 1e154 overflow; the norm scales them down,
        warns about nothing, and the residual check still runs on a finite scale."""
        m = np.array([[1e200, 2e200], [2e200, -1e200]], dtype=complex)
        with np.errstate(all="raise"):
            assert frob(m) == pytest.approx(np.sqrt(10) * 1e200, rel=1e-14)
            spec = hermitian_eig(HermitianOperator(m))
        assert spec.eigenvalues == pytest.approx([-np.sqrt(5) * 1e200, np.sqrt(5) * 1e200], rel=1e-14)


class TestEvolutionUnitary:
    def test_t_zero_is_identity(self, rng):
        spec = hermitian_eig(random_hermitian(rng, 5))
        assert np.allclose(evolution_unitary(spec, 0.0), np.eye(5))

    def test_pauli_z_pi(self):
        spec = hermitian_eig(HermitianOperator(PAULI_Z))
        u = evolution_unitary(spec, np.pi)
        assert np.allclose(u, np.diag([np.exp(-1j * np.pi), np.exp(1j * np.pi)]))

    def test_against_expm_oracle(self, rng):
        h = random_hermitian(rng, 8)
        spec = hermitian_eig(h)
        u = evolution_unitary(spec, 0.3)
        assert np.max(np.abs(u - scipy.linalg.expm(-0.3j * h.matrix))) <= 1e-9

    def test_unitary_and_group_law(self, rng):
        spec = hermitian_eig(random_hermitian(rng, 6))
        u1, u2 = evolution_unitary(spec, 0.7), evolution_unitary(spec, -1.3)
        assert np.max(np.abs(u1.conj().T @ u1 - np.eye(6))) <= 1e-10
        assert np.max(np.abs(u1 @ u2 - evolution_unitary(spec, -0.6))) <= 1e-9

    def test_infinite_time_rejected(self, rng):
        spec = hermitian_eig(random_hermitian(rng, 2))
        with pytest.raises(LinalgError):
            evolution_unitary(spec, np.inf)


class TestPartialTrace:
    def test_ancilla_zero(self, rng):
        rho = random_density(rng, 4).matrix
        anc0 = np.zeros((2, 2))
        anc0[0, 0] = 1.0
        assert np.allclose(partial_trace_ancilla(np.kron(anc0, rho)), rho)

    def test_ancilla_one(self, rng):
        rho = random_density(rng, 4).matrix
        anc1 = np.zeros((2, 2))
        anc1[1, 1] = 1.0
        assert np.allclose(partial_trace_ancilla(np.kron(anc1, rho)), rho)

    def test_maximally_mixed(self):
        assert np.allclose(partial_trace_ancilla(np.eye(4) / 4), np.eye(2) / 2)

    def test_linear_and_trace_preserving(self, rng):
        m1 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m2 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        lhs = partial_trace_ancilla(2.0 * m1 - 0.5j * m2)
        rhs = 2.0 * partial_trace_ancilla(m1) - 0.5j * partial_trace_ancilla(m2)
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.trace(partial_trace_ancilla(m1)) == pytest.approx(np.trace(m1), abs=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(LinalgError):
            partial_trace_ancilla(np.eye(3))


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(5)) == pytest.approx(5.0)

    def test_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_against_eigenvalue_oracle(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        oracle = np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0)))
        assert trace_norm(m) == pytest.approx(oracle, abs=1e-10)


class TestDensityMatrix:
    def test_pure(self, rng):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = DensityMatrix.pure(psi)
        assert np.trace(rho.matrix).real == pytest.approx(1.0)
        assert np.min(np.linalg.eigvalsh(rho.matrix)) >= -1e-12

    def test_rejects_bad_trace(self):
        with pytest.raises(LinalgError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(LinalgError):
            DensityMatrix(np.diag([1.5, -0.5]))
