import numpy as np
import pytest
import scipy.linalg

from lindbladprep.filters import default_params
from lindbladprep.jump import dilate, exact_jump, quadrature_jump
from lindbladprep.linalg import (
    DensityMatrix,
    HermitianOperator,
    LinalgError,
    hermitian_eig,
    trace_norm,
)
from lindbladprep.models import ModelSpec, build_tfim, coupling_operator
from lindbladprep.reference import (
    LindbladSystem,
    evolve_ode,
    exact_dilated_step,
    lindbladian_apply,
    superoperator_expm_step,
    superoperator_matrix,
)

from conftest import PAULI_Z, random_density


def tfim2_system(clamp=False):
    model = ModelSpec("tfim", 2, tfim_g=1.2)
    h = model.hamiltonian().dense()
    spec = hermitian_eig(h)
    p = default_params(spec.spectral_norm, spec.gap, clamp=clamp)
    k = exact_jump(spec, coupling_operator(model).dense(), p)
    return LindbladSystem(h, k), spec


class TestLindbladianApply:
    def test_traceless(self, rng):
        sys, _ = tfim2_system()
        rho = random_density(rng, 4)
        assert abs(np.trace(lindbladian_apply(sys, rho.matrix))) <= 1e-12

    def test_ground_state_fixed(self):
        sys, spec = tfim2_system(clamp=True)
        rho_g = DensityMatrix.pure(spec.ground_state)
        assert np.max(np.abs(lindbladian_apply(sys, rho_g.matrix))) <= 1e-12

    def test_zero_jump_is_commutator(self, rng):
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        h = model.hamiltonian().dense()
        spec = hermitian_eig(h)
        p = default_params(spec.spectral_norm, spec.gap)
        k0 = quadrature_jump(spec, HermitianOperator(np.zeros((4, 4))), p)
        sys = LindbladSystem(h, k0)
        rho = random_density(rng, 4).matrix
        expect = -1j * (h.matrix @ rho - rho @ h.matrix)
        assert np.allclose(lindbladian_apply(sys, rho), expect, atol=1e-14)

    def test_superoperator_oracle(self, rng):
        sys, _ = tfim2_system()
        m = superoperator_matrix(sys)
        rho = random_density(rng, 4).matrix
        direct = lindbladian_apply(sys, rho)
        via_vec = (m @ rho.reshape(-1, order="F")).reshape(4, 4, order="F")
        assert np.max(np.abs(direct - via_vec)) <= 1e-12


class TestEvolveOde:
    def test_zero_time(self, rng):
        sys, _ = tfim2_system()
        rho = random_density(rng, 4)
        assert evolve_ode(sys, rho, 0.0, 0.01) is rho

    def test_pure_hamiltonian_closed_form(self, rng):
        h = HermitianOperator(PAULI_Z)
        spec = hermitian_eig(h)
        p = default_params(1.0, 1.0)
        k0 = quadrature_jump(spec, HermitianOperator(np.zeros((2, 2))), p)
        sys = LindbladSystem(h, k0)
        rho = random_density(rng, 2)
        out = evolve_ode(sys, rho, 1.0, 1e-3)
        u = scipy.linalg.expm(-1j * PAULI_Z)
        assert np.max(np.abs(out.matrix - u @ rho.matrix @ u.conj().T)) <= 1e-9

    def test_against_superoperator_expm(self, rng):
        sys, _ = tfim2_system()
        rho = random_density(rng, 4)
        out = evolve_ode(sys, rho, 1.0, 1e-3)
        ref = superoperator_expm_step(sys, rho, 1.0)
        assert np.max(np.abs(out.matrix - ref.matrix)) <= 1e-8

    def test_fourth_order_self_convergence(self, rng):
        sys, _ = tfim2_system()
        rho = random_density(rng, 4)
        outs = [evolve_ode(sys, rho, 0.5, dt).matrix for dt in (0.05, 0.025, 0.0125)]
        d1 = np.linalg.norm(outs[1] - outs[0])
        d2 = np.linalg.norm(outs[2] - outs[1])
        assert d2 <= d1 / 12  # order 4 would give 16; leave headroom

    def test_rejects_giant_step(self, rng):
        # roundoff in the wildly unstable step shows up as trace drift
        sys, _ = tfim2_system()
        rho = random_density(rng, 4)
        with pytest.raises(LinalgError, match="trace"):
            evolve_ode(sys, rho, 1e5, 1e5)


class TestExactDilatedStep:
    def test_zero_time_and_zero_jump(self, rng):
        sys, spec = tfim2_system()
        rho = random_density(rng, 4)
        kd = dilate(sys.k)
        assert trace_norm(exact_dilated_step(kd, rho, 0.0).matrix - rho.matrix) <= 1e-12
        p = default_params(spec.spectral_norm, spec.gap)
        k0 = quadrature_jump(spec, HermitianOperator(np.zeros((4, 4))), p)
        assert trace_norm(exact_dilated_step(dilate(k0), rho, 0.7).matrix - rho.matrix) <= 1e-12

    def test_second_order_agreement_with_dissipative(self, rng):
        """One-ancilla dilation reproduces exp(L_K tau) to O(tau^2)."""
        sys, _ = tfim2_system()
        kd = dilate(sys.k)
        rho = random_density(rng, 4)
        zero_h = HermitianOperator(np.zeros((4, 4)))
        sys_k = LindbladSystem(zero_h, sys.k)
        taus = np.logspace(-3, -1, 5)
        errs = [
            trace_norm(
                exact_dilated_step(kd, rho, t).matrix
                - superoperator_expm_step(sys_k, rho, t).matrix
            )
            for t in taus
        ]
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_cptp(self, rng):
        sys, _ = tfim2_system()
        kd = dilate(sys.k)
        rho = random_density(rng, 4)
        out = exact_dilated_step(kd, rho, 0.3)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10
        assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-8


class TestChannelProperties:
    def test_step_preserves_state_invariants(self, rng):
        sys, _ = tfim2_system()
        rho = random_density(rng, 4)
        for step in (
            lambda r: exact_dilated_step(dilate(sys.k), r, 0.4),
            lambda r: superoperator_expm_step(sys, r, 0.4),
        ):
            out = step(rho)
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-8

    def test_contractivity(self, rng):
        sys, _ = tfim2_system()
        for _ in range(10):
            r1, r2 = random_density(rng, 4), random_density(rng, 4)
            base = trace_norm(r1.matrix - r2.matrix)
            for step in (
                lambda r: exact_dilated_step(dilate(sys.k), r, 0.4),
                lambda r: superoperator_expm_step(sys, r, 0.4),
            ):
                after = trace_norm(step(r1).matrix - step(r2).matrix)
                assert after <= base + 1e-9

    def test_first_order_splitting_local_error(self, rng):
        """exp((L_H + L_K) t) vs exp(L_H t) exp(L_K t): local error O(t^2)."""
        sys, _ = tfim2_system()
        zero_h = HermitianOperator(np.zeros((4, 4)))
        m_full = superoperator_matrix(sys)
        m_h = superoperator_matrix(LindbladSystem(sys.h, _zero_jump()))
        m_k = superoperator_matrix(LindbladSystem(zero_h, sys.k))
        rho = random_density(rng, 4).matrix.reshape(-1, order="F")
        ts = np.logspace(-3, -1, 5)
        errs = []
        for t in ts:
            full = scipy.linalg.expm(m_full * t) @ rho
            split = scipy.linalg.expm(m_h * t) @ (scipy.linalg.expm(m_k * t) @ rho)
            errs.append(np.linalg.norm(full - split))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.2


def _zero_jump():
    spec = hermitian_eig(build_tfim(2, 1.2).dense())
    p = default_params(spec.spectral_norm, spec.gap)
    return quadrature_jump(spec, HermitianOperator(np.zeros((4, 4))), p)
