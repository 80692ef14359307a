"""Acceptance suite: the twelve headline claims, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Everything is seeded, so results are bit-reproducible.
"""

import numpy as np
import pytest

from lindbladprep.channel import (
    ChannelConfig,
    build_kraus_pair,
    build_w,
    build_w_naive,
    channel_step_density,
    run_simulation,
)
from lindbladprep.filters import default_params
from lindbladprep.jump import dilate, exact_jump, quadrature_jump
from lindbladprep.linalg import (
    DensityMatrix,
    HermitianOperator,
    evolution_unitary,
    hermitian_eig,
    trace_norm,
)
from lindbladprep.models import ModelSpec, coupling_operator
from lindbladprep.randomcoupling import (
    RandomCouplingSpec,
    concentration_experiment,
    ergodicity_experiment,
    evolve_populations,
    synthetic_spectrum,
    transition_matrix,
)
from lindbladprep.reference import (
    LindbladSystem,
    evolve_ode,
    exact_dilated_step,
    superoperator_expm_step,
)

from conftest import random_density


def report(num: int, ok: bool, description: str, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {description} :: {detail}")
    assert ok, f"criterion {num}: {description} :: {detail}"


TFIM4 = ModelSpec("tfim", 4, tfim_g=1.2)


@pytest.fixture(scope="module")
def tfim4_spec():
    return hermitian_eig(TFIM4.hamiltonian())


@pytest.fixture(scope="module")
def tfim4_continuous():
    cfg = ChannelConfig(
        tau=0.1, total_time=80.0, mode="continuous", backend="trajectory",
        reps=100, seed=7, record_stride=10,
    )
    return run_simulation(TFIM4, cfg)


@pytest.fixture(scope="module")
def tfim4_discrete():
    cfg = ChannelConfig(
        tau=1.0, total_time=80.0, mode="discrete", r=1, backend="trajectory",
        reps=100, seed=7,
    )
    return run_simulation(TFIM4, cfg)


def tfim2_setup(clamp=False):
    model = ModelSpec("tfim", 2, tfim_g=1.2)
    h = model.hamiltonian()
    spec = hermitian_eig(h)
    p = default_params(spec.spectral_norm, spec.gap, clamp=clamp)
    return h, spec, coupling_operator(model), p


def test_criterion_01_tfim4_reproduction(tfim4_spec, tfim4_continuous):
    rec = tfim4_continuous
    lam0, gap = tfim4_spec.eigenvalues[0], tfim4_spec.gap
    e_err = abs(rec.final_energy - lam0)
    ok = rec.final_overlap >= 0.9 and e_err <= 0.1 * gap
    report(
        1, ok,
        "TFIM-4 continuous run converges from zero overlap",
        f"final overlap {rec.final_overlap:.3f} (>= 0.9), "
        f"energy error {e_err:.3f} (<= {0.1 * gap:.3f})",
    )


def test_criterion_02_discrete_cost_advantage(tfim4_continuous, tfim4_discrete):
    cont, disc = tfim4_continuous, tfim4_discrete
    h_cont = cont.h_time_at_overlap(0.9)
    h_disc = disc.h_time_at_overlap(0.9)
    ok = (
        disc.final_overlap >= 0.9
        and h_cont is not None
        and h_disc is not None
        and h_disc <= h_cont / 5
    )
    report(
        2, ok,
        "discrete stepping cuts Hamiltonian-simulation time >= 5x",
        f"h_time to overlap 0.9: discrete {h_disc:.0f} vs continuous {h_cont:.0f} "
        f"(ratio {h_cont / h_disc:.1f}x)",
    )


def test_criterion_03_hubbard4_reproduction():
    model = ModelSpec("hubbard1d", 4, hubbard_t=1.0, hubbard_u=4.0)
    cfg = ChannelConfig(
        tau=0.5, total_time=100.0, mode="discrete", r=2, backend="trajectory",
        reps=100, seed=7, record_stride=10,
    )
    rec = run_simulation(model, cfg)
    ok = rec.final_overlap >= 0.85
    report(3, ok, "Hubbard-4 discrete run reaches the ground state",
           f"final overlap {rec.final_overlap:.3f} (>= 0.85)")


def test_criterion_04_dilation_error_scaling():
    _, spec, a, p = tfim2_setup()
    k = quadrature_jump(spec, a, p)
    kd = dilate(k)
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    sys_k = LindbladSystem(
        HermitianOperator(np.zeros((4, 4))), k, include_coherent=False
    )
    taus = np.logspace(-3, -1, 5)
    errs = [
        trace_norm(
            exact_dilated_step(kd, rho, t).matrix
            - superoperator_expm_step(sys_k, rho, t).matrix
        )
        for t in taus
    ]
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    ok = abs(slope - 2.0) <= 0.2
    report(4, ok, "single-ancilla dilation error is second order in the step",
           f"log-log slope {slope:.3f} (2.0 +/- 0.2)")


def test_criterion_05_quadrature_convergence():
    model = ModelSpec("tfim", 4, tfim_g=1.2)
    spec = hermitian_eig(model.hamiltonian())
    a = coupling_operator(model)
    p = default_params(spec.spectral_norm, spec.gap)
    k = exact_jump(spec, a, p)
    ks = quadrature_jump(spec, a, p)
    err = float(np.linalg.norm(k.matrix - ks.matrix, 2))
    # saturation: past the rule radius, doubling no longer moves the sum
    k2 = quadrature_jump(spec, a, p.with_s_radius(2 * p.s_radius))
    k4 = quadrature_jump(spec, a, p.with_s_radius(4 * p.s_radius))
    change = float(np.linalg.norm(k4.matrix - k2.matrix, 2))
    integral = float(np.linalg.norm(k.matrix - k2.matrix, 2))
    ok = err <= 1e-3 * a.norm() and change <= 1e-6 and integral <= 1e-6
    report(
        5, ok, "trapezoid jump operator converges (rule accuracy + saturation)",
        f"|K-K_s| {err:.1e} (<= 1e-3), doubling change {change:.1e} (<= 1e-6), "
        f"|K-K_s(2S)| {integral:.1e} (<= 1e-6)",
    )


def test_criterion_06_cancellation_identity():
    model = ModelSpec("tfim", 4, tfim_g=1.2)
    spec = hermitian_eig(model.hamiltonian())
    a = coupling_operator(model)
    p = default_params(spec.spectral_norm, spec.gap)
    tau = 0.3
    w = build_w(spec, a, p, tau)
    naive = build_w_naive(spec, a, p, tau)
    frame = np.kron(np.eye(2), evolution_unitary(spec, p.grid_radius))
    err = float(np.max(np.abs(naive - frame @ w @ frame.conj().T)))
    ok = err <= 1e-10
    report(6, ok, "back-and-forth frame cancellation is exact",
           f"max deviation {err:.1e} (<= 1e-10) on a 4-qubit instance")


def test_criterion_07_channel_second_order():
    _, spec, a, p = tfim2_setup()
    kd = dilate(quadrature_jump(spec, a, p))
    rng = np.random.default_rng(11)
    rho = random_density(rng, 4)
    u_g = evolution_unitary(spec, p.grid_radius)
    rho_rot = DensityMatrix(u_g @ rho.matrix @ u_g.conj().T, check_positivity=False)
    taus = np.logspace(-2, 0, 5)
    errs = []
    for t in taus:
        cfg = ChannelConfig(tau=t, total_time=t, r=1, include_coherent=False, backend="density")
        kraus = build_kraus_pair(spec, a, p, cfg)
        out = channel_step_density(rho.matrix, kraus)
        ref = exact_dilated_step(kd, rho_rot, t)
        errs.append(trace_norm(u_g @ out @ u_g.conj().T - ref.matrix))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    ok = abs(slope - 2.0) <= 0.25
    report(7, ok, "ordered-product channel is second order per step",
           f"slope {slope:.3f} (2.0 +/- 0.25, frame-aligned reference)")


def test_criterion_08_global_first_order():
    h, spec, a, p = tfim2_setup()
    kq = quadrature_jump(spec, a, p)
    sys_mod = LindbladSystem(h, kq, include_coherent=True)
    rng = np.random.default_rng(11)
    rho_i = random_density(rng, 4)
    u_g = evolution_unitary(spec, p.grid_radius)
    rho0 = DensityMatrix(u_g @ rho_i.matrix @ u_g.conj().T, check_positivity=False)
    ref = evolve_ode(sys_mod, rho0, 2.0, dt=1e-3)
    taus = [0.2, 0.1, 0.05, 0.025]
    errs = []
    for t in taus:
        cfg = ChannelConfig(tau=t, total_time=2.0, r=1, include_coherent=True, backend="density")
        u_coh = evolution_unitary(spec, t)
        kraus = build_kraus_pair(spec, a, p, cfg, u_coh)
        rho = rho_i.matrix
        for _ in range(cfg.n_steps):
            rho = channel_step_density(rho, kraus)
        errs.append(trace_norm(u_g @ rho @ u_g.conj().T - ref.matrix))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    ok = abs(slope - 1.0) <= 0.25
    report(8, ok, "composed scheme converges first order to the frame-shifted flow",
           f"slope {slope:.3f} (1.0 +/- 0.25) at T=2")


def test_criterion_09_cptp_invariants():
    _, spec, a, p = tfim2_setup()
    cfg = ChannelConfig(tau=0.5, total_time=0.5, backend="density")
    u_coh = evolution_unitary(spec, cfg.tau)
    kraus = build_kraus_pair(spec, a, p, cfg, u_coh)
    rng = np.random.default_rng(9)
    worst_tr = worst_neg = worst_gain = 0.0
    for _ in range(50):
        r1, r2 = random_density(rng, 4), random_density(rng, 4)
        o1 = channel_step_density(r1.matrix, kraus)
        o2 = channel_step_density(r2.matrix, kraus)
        worst_tr = max(worst_tr, abs(float(np.trace(o1).real) - 1.0))
        worst_neg = max(worst_neg, -float(np.min(np.linalg.eigvalsh(o1))))
        worst_gain = max(
            worst_gain,
            trace_norm(o1 - o2) - trace_norm(r1.matrix - r2.matrix),
        )
    ok = worst_tr <= 1e-9 and worst_neg <= 1e-8 and worst_gain <= 1e-9
    report(
        9, ok, "channel steps are CPTP and contractive on 50 random pairs",
        f"trace {worst_tr:.1e} (<= 1e-9), negativity {worst_neg:.1e} (<= 1e-8), "
        f"distance gain {worst_gain:.1e} (<= 1e-9)",
    )


def test_criterion_10_ergodicity():
    lam = synthetic_spectrum("equispaced", 8, span=4.0)
    p = default_params(4.0, float(lam[1] - lam[0]), clamp=True)
    sig = RandomCouplingSpec.uniform(8, 0.5)
    p0 = np.full(8, 1 / 8)
    rep = ergodicity_experiment(lam, sig, p, p0, tau=0.01, t_final=3.0, reps=500, seed=3)
    t = transition_matrix(lam, p, sig)
    e0 = np.zeros(8)
    e0[0] = 1.0
    limit = float(
        np.max(np.abs(evolve_populations(t, p0, 50.0 / t.min_outflow_rate()) - e0))
    )
    ok = rep.consistent() and limit <= 1e-6
    report(
        10, ok, "expected populations follow the rate equation to the unique fixed point",
        f"checkpoints outside 3 SE: {rep.n_outside_3se} (500 reps, 10 checkpoints), "
        f"long-time deviation from ground {limit:.1e} (<= 1e-6)",
    )


def test_criterion_11_concentration():
    lam = synthetic_spectrum("equispaced", 4, span=3.0)
    p = default_params(3.0, 1.0, clamp=True)
    sig = RandomCouplingSpec.uniform(4, 0.5)
    rep = concentration_experiment(
        lam, sig, p, np.full(4, 0.25), taus=[0.1, 0.05, 0.025, 0.0125],
        t_final=2.0, reps=200, seed=5,
    )
    ok = 0.4 <= rep.slope <= 0.7
    report(11, ok, "single-run deviation concentrates like sqrt(step)",
           f"fitted slope {rep.slope:.3f} (within [0.4, 0.7])")


def test_criterion_12_fixed_point_stability():
    model = ModelSpec("tfim", 4, tfim_g=1.2)
    spec = hermitian_eig(model.hamiltonian())
    p = default_params(spec.spectral_norm, spec.gap)
    a = coupling_operator(model)
    cfg = ChannelConfig(tau=1.0, total_time=100.0, mode="discrete", r=1, backend="density")
    u_coh = evolution_unitary(spec, cfg.tau)
    kraus = build_kraus_pair(spec, a, p, cfg, u_coh)
    rho_g = DensityMatrix.pure(spec.ground_state)
    rho, worst = rho_g.matrix, 0.0
    for _ in range(100):
        rho = channel_step_density(rho, kraus)
        worst = max(worst, trace_norm(rho - rho_g.matrix))
    ok = worst <= 2e-2
    report(12, ok, "ground state survives 100 large discrete steps",
           f"max trace distance {worst:.2e} (<= 2e-2) at tau=1")
