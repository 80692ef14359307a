import numpy as np
import pytest

from lindbladprep.filters import default_params, f_hat, f_l1_estimate, f_time, quadrature_grid
from lindbladprep.jump import dilate, exact_jump, ground_residual, quadrature_jump
from lindbladprep.linalg import HermitianOperator, hermitian_eig
from lindbladprep.models import ModelSpec, build_tfim, coupling_operator

from conftest import PAULI_X, PAULI_Z


def tfim_setup(sites, clamp=False):
    model = ModelSpec("tfim", sites, tfim_g=1.2)
    h = model.hamiltonian().dense()
    spec = hermitian_eig(h)
    p = default_params(spec.spectral_norm, spec.gap, clamp=clamp)
    return spec, coupling_operator(model).dense(), p


def node_loop_quadrature(spec, a, p, grid=None):
    """The trapezoid sum one node at a time, n^2 phases per node: the
    oracle for the one-GEMM filter of ``quadrature_jump``."""
    v = spec.eigenvectors
    a_eig = v.conj().T @ a.matrix @ v
    nodes, weights = quadrature_grid(p) if grid is None else grid
    omega = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
    filt = np.zeros(omega.shape, dtype=complex)
    for s_l, w_l, f_l in zip(nodes, weights, f_time(nodes, p)):
        filt += w_l * f_l * np.exp(1j * s_l * omega)
    return v @ (filt * a_eig) @ v.conj().T


class TestExactJump:
    def test_identity_coupling_clamped_vanishes(self):
        # A = I is diagonal in the energy basis (to roundoff), and all
        # diagonal frequencies are clamped away
        spec = hermitian_eig(build_tfim(2, 1.2).dense())
        p = default_params(spec.spectral_norm, spec.gap, clamp=True)
        k = exact_jump(spec, HermitianOperator(np.eye(4)), p)
        assert np.max(np.abs(k.matrix)) <= 1e-14

    def test_two_level_single_transition(self):
        spec = hermitian_eig(HermitianOperator(PAULI_Z))
        p = default_params(1.0, 1.0, clamp=True)
        k = exact_jump(spec, HermitianOperator(PAULI_X), p)
        # only the downward matrix element survives: f_hat(-2) |psi0><psi1|
        expect = np.zeros((2, 2), dtype=complex)
        expect[1, 0] = f_hat(-2.0, p)  # psi0 = |1>, psi1 = |0> for Z
        assert np.allclose(k.matrix, expect, atol=1e-15)

    def test_ground_is_dark_state_tfim4(self):
        spec, a, p = tfim_setup(4, clamp=True)
        k = exact_jump(spec, a, p)
        assert ground_residual(k, spec) <= 1e-12
        # and the dilated operator kills |0> x psi0
        kd = dilate(k)
        vec = np.concatenate([spec.ground_state, np.zeros(16)])
        assert np.linalg.norm(kd.matrix @ vec) <= 1e-12

    def test_strictly_lower_triangular_in_energy_basis(self):
        spec, a, p = tfim_setup(4, clamp=True)
        k = exact_jump(spec, a, p)
        k_eig = spec.eigenvectors.conj().T @ k.matrix @ spec.eigenvectors
        lam = spec.eigenvalues
        for i in range(16):
            for j in range(16):
                if lam[i] >= lam[j]:
                    assert abs(k_eig[i, j]) <= 1e-14

    def test_unclamped_residual_bounded(self):
        spec, a, p = tfim_setup(4)
        k = exact_jump(spec, a, p)
        res = ground_residual(k, spec)
        assert res <= 0.1 * a.norm()
        # erf-tail bound: diagonal leak + upward transitions
        bound = (f_hat(0.0, p) + f_hat(spec.gap, p)) * a.norm()
        assert res <= bound

    def test_dimension_mismatch(self):
        spec = hermitian_eig(build_tfim(2, 1.2).dense())
        p = default_params(spec.spectral_norm, spec.gap)
        with pytest.raises(ValueError):
            exact_jump(spec, HermitianOperator(np.eye(8)), p)


class TestQuadratureJump:
    def test_zero_coupling(self):
        spec, _, p = tfim_setup(2)
        k = quadrature_jump(spec, HermitianOperator(np.zeros((4, 4))), p)
        assert np.max(np.abs(k.matrix)) == 0.0

    def test_converges_on_all_benchmarks(self):
        for model in (
            ModelSpec("tfim", 4, tfim_g=1.2),
            ModelSpec("tfim", 6, tfim_g=1.2),
            ModelSpec("hubbard1d", 4, hubbard_t=1.0, hubbard_u=4.0),
        ):
            spec = hermitian_eig(model.hamiltonian().dense())
            a = coupling_operator(model).dense()
            p = default_params(spec.spectral_norm, spec.gap)
            err = np.linalg.norm(
                exact_jump(spec, a, p).matrix - quadrature_jump(spec, a, p).matrix, 2
            )
            assert err <= 1e-3 * a.norm()

    def test_norm_bound_invariant(self):
        spec, a, p = tfim_setup(4)
        k = quadrature_jump(spec, a, p)
        assert k.norm() <= 1.1 * f_l1_estimate(p) * a.norm()

    def test_quadrature_residual_consistent_with_exact(self):
        spec, a, p = tfim_setup(4)
        r_exact = ground_residual(exact_jump(spec, a, p), spec)
        r_quad = ground_residual(quadrature_jump(spec, a, p), spec)
        assert abs(r_exact - r_quad) <= 2e-3 * a.norm()

    @pytest.mark.parametrize(
        "model, corrupt",
        [
            (ModelSpec("tfim", 4, tfim_g=1.2), False),
            (ModelSpec("tfim", 6, tfim_g=1.2), False),
            (ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0), False),
            (ModelSpec("tfim", 4, tfim_g=1.2), True),
        ],
    )
    def test_matches_node_loop_oracle(self, model, corrupt):
        spec = hermitian_eig(model.hamiltonian().dense())
        a = coupling_operator(model).dense()
        p = default_params(spec.spectral_norm, spec.gap)
        grid = None
        if corrupt:  # the verify harness's sign-flipped weights
            nodes, weights = quadrature_grid(p)
            grid = (nodes, np.where(nodes < 0, -weights, weights))
        oracle = node_loop_quadrature(spec, a, p, grid)
        k = quadrature_jump(spec, a, p, grid=grid).matrix
        assert np.max(np.abs(k - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    def test_operator_form_oracle(self):
        """Eigenbasis phase evaluation equals the literal sum of Heisenberg
        conjugations (the O(N^3)-per-node form)."""
        from lindbladprep.linalg import evolution_unitary

        spec, a, p = tfim_setup(2)
        nodes, weights = quadrature_grid(p)
        brute = np.zeros((4, 4), dtype=complex)
        for s, w in zip(nodes, weights):
            u = evolution_unitary(spec, -s)  # e^{iHs}
            brute += w * f_time(s, p) * (u @ a.matrix @ u.conj().T)
        k = quadrature_jump(spec, a, p)
        assert np.max(np.abs(k.matrix - brute)) <= 1e-12


class TestDilate:
    def test_zero(self):
        spec, _, p = tfim_setup(2)
        k = quadrature_jump(spec, HermitianOperator(np.zeros((4, 4))), p)
        assert np.max(np.abs(dilate(k).matrix)) == 0.0

    def test_identity_is_x(self):
        spec, _, p = tfim_setup(2)
        k = exact_jump(spec, HermitianOperator(np.eye(4)), p)
        # unclamped: K = fhat(0) I, so the dilation is fhat(0) * (X x I)
        kd = dilate(k)
        x_kron = np.kron(PAULI_X, np.eye(4))
        assert np.allclose(kd.matrix, f_hat(0.0, p) * x_kron, atol=1e-15)

    def test_blocks_and_hermiticity(self, rng):
        spec, a, p = tfim_setup(2)
        k = quadrature_jump(spec, a, p)
        kd = dilate(k)
        assert np.max(np.abs(kd.matrix[:4, :4])) == 0.0
        assert np.max(np.abs(kd.matrix[4:, 4:])) == 0.0
        assert np.array_equal(kd.matrix[4:, :4], k.matrix)
        assert np.max(np.abs(kd.matrix - kd.matrix.conj().T)) == 0.0

    def test_spectrum_is_plus_minus_singular_values(self, rng):
        spec, a, p = tfim_setup(2)
        k = quadrature_jump(spec, a, p)
        evals = np.sort(np.linalg.eigvalsh(dilate(k).matrix))
        sv = np.linalg.svd(k.matrix, compute_uv=False)
        assert np.allclose(evals, np.sort(np.concatenate([sv, -sv])), atol=1e-12)
