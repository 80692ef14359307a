import numpy as np
import pytest
import scipy.linalg

from lindbladprep.channel import (
    ChannelConfig,
    ChannelError,
    build_kraus_pair,
    build_w,
    build_w_naive,
    channel_step_density,
    run_simulation,
    step_cost,
    trajectory_step,
)
from lindbladprep.filters import default_params, f_time, quadrature_grid
from lindbladprep.jump import dilate, quadrature_jump
from lindbladprep.linalg import (
    DensityMatrix,
    HermitianOperator,
    evolution_unitary,
    hermitian_eig,
    trace_norm,
)
from lindbladprep.models import PAULI_X, PAULI_Y, ModelSpec, coupling_operator
from lindbladprep.reference import exact_dilated_step

from conftest import random_density, random_state


def tfim_setup(sites=2, clamp=False):
    model = ModelSpec("tfim", sites, tfim_g=1.2)
    h = model.hamiltonian()
    spec = hermitian_eig(h)
    p = default_params(spec.spectral_norm, spec.gap, clamp=clamp)
    return model, h, spec, coupling_operator(model), p


class TestChannelConfig:
    def test_step_count(self):
        cfg = ChannelConfig(tau=0.1, total_time=8.0)
        assert cfg.n_steps == 80

    def test_non_integer_steps_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(tau=0.3, total_time=1.0)

    def test_tau_eff_segments(self):
        cfg = ChannelConfig(tau=1.0, total_time=2.0, mode="discrete", r=2)
        # r segments of unitary argument sqrt(tau)/r compose to sqrt(tau)
        assert cfg.tau_eff == pytest.approx(0.25)
        assert cfg.r * np.sqrt(cfg.tau_eff) == pytest.approx(np.sqrt(cfg.tau))

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            ChannelConfig(tau=0.1, total_time=1.0, mode="warp")
        with pytest.raises(ValueError):
            ChannelConfig(tau=0.1, total_time=1.0, backend="tensor")
        with pytest.raises(ValueError):
            ChannelConfig(tau=0.1, total_time=1.0, r=0)
        with pytest.raises(ValueError):
            ChannelConfig(tau=0.1, total_time=1.0, initial_state="vacuum")


class TestBuildW:
    def test_unitary(self):
        _, _, spec, a, p = tfim_setup(2)
        w = build_w(spec, a, p, 0.4)
        assert np.max(np.abs(w.conj().T @ w - np.eye(8))) <= 1e-10

    def test_zero_coupling_telescopes_to_identity(self):
        _, _, spec, _, p = tfim_setup(2)
        w = build_w(spec, HermitianOperator(np.zeros((4, 4))), p, 0.4)
        assert np.max(np.abs(w - np.eye(8))) <= 1e-12

    def test_node_factor_matches_expm_oracle(self):
        """Each exactly-exponentiated gate equals expm of its generator."""
        from lindbladprep.channel import _atilde_blocks

        _, _, spec, a, p = tfim_setup(2)
        a_spec = hermitian_eig(a)
        nodes, weights = quadrature_grid(p)
        x = np.sqrt(0.4)
        for idx in (0, len(nodes) // 2, len(nodes) - 1):
            f_l = f_time(nodes[idx], p)
            phi = 0.5 * x * weights[idx] * abs(f_l)
            theta = float(np.angle(f_l))
            c, o01, o10 = _atilde_blocks(a_spec, phi, theta)
            built = np.block([[c, o01], [o10, c]])
            sigma = weights[idx] * (PAULI_X * f_l.real + PAULI_Y * f_l.imag)
            gen = np.kron(sigma, a.matrix)
            oracle = scipy.linalg.expm(-0.5j * x * gen)
            assert np.max(np.abs(built - oracle)) <= 1e-12

    def test_cancellation_identity_four_qubits(self):
        _, _, spec, a, p = tfim_setup(4)
        tau = 0.3
        w = build_w(spec, a, p, tau)
        naive = build_w_naive(spec, a, p, tau)
        frame = np.kron(np.eye(2), evolution_unitary(spec, p.grid_radius))
        assert np.max(np.abs(naive - frame @ w @ frame.conj().T)) <= 1e-10

    def test_trotter_slope_against_dilated_step(self):
        _, _, spec, a, p = tfim_setup(2)
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
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.25

    def test_segment_refinement_converges_to_dilated_step(self):
        """W(sqrt(tau)/r)^r approaches exp(-i sqrt(tau) Ktilde) as r grows."""
        _, _, spec, a, p = tfim_setup(2)
        kd = dilate(quadrature_jump(spec, a, p))
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4)
        u_g = evolution_unitary(spec, p.grid_radius)
        rho_rot = DensityMatrix(u_g @ rho.matrix @ u_g.conj().T, check_positivity=False)
        tau = 1.0
        ref = exact_dilated_step(kd, rho_rot, tau)
        errs = []
        for r in (1, 2, 4):
            cfg = ChannelConfig(
                tau=tau, total_time=tau, mode="discrete", r=r,
                include_coherent=False, backend="density",
            )
            kraus = build_kraus_pair(spec, a, p, cfg)
            out = channel_step_density(rho.matrix, kraus)
            errs.append(trace_norm(u_g @ out @ u_g.conj().T - ref.matrix))
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] <= errs[0] / 8  # ~r^2 suppression


class TestBuildKrausPair:
    @pytest.mark.parametrize("coherent", [True, False])
    @pytest.mark.parametrize(
        "model, r",
        [
            (ModelSpec("tfim", 4, tfim_g=1.2), 1),
            (ModelSpec("tfim", 4, tfim_g=1.2), 2),
            (ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0), 2),
        ],
        ids=["tfim4-r1", "tfim4-r2", "hubbard2-r2"],
    )
    def test_matches_block_column_of_w_power(self, model, r, coherent):
        """(M0, M1) is the ancilla-|0> block column of W^r, with e^{-iH tau}
        folded in when the coherent part is on."""
        spec = hermitian_eig(model.hamiltonian())
        a = coupling_operator(model)
        p = default_params(spec.spectral_norm, spec.gap)
        cfg = ChannelConfig(
            tau=0.5, total_time=0.5, mode="discrete", r=r, include_coherent=coherent
        )
        u = evolution_unitary(spec, cfg.tau)
        m0, m1 = build_kraus_pair(spec, a, p, cfg, u)
        phi = np.linalg.matrix_power(build_w(spec, a, p, cfg.tau_eff), r)
        n = spec.dim
        fold = u if coherent else np.eye(n)
        assert np.max(np.abs(m0 - fold @ phi[:n, :n])) <= 1e-12
        assert np.max(np.abs(m1 - fold @ phi[n:, :n])) <= 1e-12

    def test_corrupted_factor_trips_isometry_check(self, monkeypatch):
        import lindbladprep.channel as channel

        exact = channel._atilde_diagonals
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, include_coherent=False)
        for scale in (1.001, np.nan):  # NaN compares False with any bound

            def corrupted(a_eigvals, phi, theta, scale=scale):
                c, o01, o10 = exact(a_eigvals, phi, theta)
                return scale * c, o01, o10

            monkeypatch.setattr(channel, "_atilde_diagonals", corrupted)
            with pytest.raises(ChannelError, match="trace preservation"):
                build_kraus_pair(spec, a, p, cfg)
            with pytest.raises(ChannelError, match="unitarity"):
                build_w(spec, a, p, cfg.tau_eff)


class TestChannelStepDensity:
    def test_cptp_per_step(self, rng):
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, backend="density")
        u = evolution_unitary(spec, cfg.tau)
        kraus = build_kraus_pair(spec, a, p, cfg, u)
        rho = random_density(rng, 4)
        out = channel_step_density(rho.matrix, kraus)
        assert abs(np.trace(out).real - 1.0) <= 1e-9
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-8

    def test_contractive(self, rng):
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, backend="density")
        kraus = build_kraus_pair(spec, a, p, cfg, evolution_unitary(spec, cfg.tau))
        for _ in range(20):
            r1, r2 = random_density(rng, 4), random_density(rng, 4)
            o1 = channel_step_density(r1.matrix, kraus)
            o2 = channel_step_density(r2.matrix, kraus)
            assert trace_norm(o1 - o2) <= trace_norm(r1.matrix - r2.matrix) + 1e-9

    def test_fixed_point_single_step(self):
        _, _, spec, a, p = tfim_setup(4)
        rho_g = DensityMatrix.pure(spec.ground_state)
        for tau in (0.1, 1.0):
            cfg = ChannelConfig(tau=tau, total_time=tau, backend="density")
            kraus = build_kraus_pair(spec, a, p, cfg, evolution_unitary(spec, tau))
            out = channel_step_density(rho_g.matrix, kraus)
            assert trace_norm(out - rho_g.matrix) <= 1e-2

    def test_missing_coherent_unitary(self):
        # e^{-iH tau} enters the step through the pair, so the pair refuses to
        # build without it
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, backend="density")
        with pytest.raises(ChannelError, match="coherent step"):
            build_kraus_pair(spec, a, p, cfg, None)

    def test_trace_drift_and_nonfinite_entries_fail(self, rng):
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, include_coherent=False, backend="density")
        m0, m1 = build_kraus_pair(spec, a, p, cfg)
        rho = random_density(rng, 4).matrix
        with pytest.raises(ChannelError, match="trace drifted"):
            channel_step_density(rho, (1.001 * m0, m1))
        bad = rho.copy()
        bad[0, 1] = np.nan
        with pytest.raises(ChannelError, match="NaN/Inf"):
            channel_step_density(bad, (m0, m1))


class TestCostLedger:
    def test_step_cost_formula(self):
        _, _, spec, a, p = tfim_setup(4)
        cfg = ChannelConfig(tau=0.1, total_time=80.0, backend="trajectory")
        delta = step_cost(p, cfg)
        factors = 2 * (2 * p.m_half + 1)
        assert delta.controlled_a_count == factors
        assert delta.hamiltonian_time == pytest.approx(factors * p.tau_s + 0.1)
        cfg_r = ChannelConfig(tau=1.0, total_time=80.0, mode="discrete", r=3)
        delta_r = step_cost(p, cfg_r)
        assert delta_r.controlled_a_count == 3 * factors
        assert delta_r.hamiltonian_time == pytest.approx(3 * factors * p.tau_s + 1.0)

    def test_dissipative_only_cost(self):
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.1, total_time=1.0, include_coherent=False)
        assert step_cost(p, cfg).hamiltonian_time == pytest.approx(
            2 * (2 * p.m_half + 1) * p.tau_s
        )


class TestTrajectoryStep:
    def test_identity_w(self, rng):
        _, h, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.3, total_time=0.3)
        psi = np.stack([random_state(rng, 4) for _ in range(3)], axis=1)
        u = evolution_unitary(spec, cfg.tau)
        # the pair of W = I with e^{-iH tau} folded in
        kraus = (u, np.zeros_like(u))
        out, clicks = trajectory_step(psi, kraus, rng.random(3))
        assert not clicks.any()
        assert np.allclose(out, u @ psi)

    def test_ground_state_rarely_clicks(self):
        _, _, spec, a, p = tfim_setup(4)
        cfg = ChannelConfig(tau=0.1, total_time=0.1)
        _, m1 = build_kraus_pair(spec, a, p, cfg, evolution_unitary(spec, cfg.tau))
        branch1 = m1 @ spec.ground_state
        assert np.vdot(branch1, branch1).real <= 1e-2

    def test_norm_validation(self, rng):
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.3, total_time=0.3)
        kraus = build_kraus_pair(spec, a, p, cfg, evolution_unitary(spec, cfg.tau))
        psi = np.stack([random_state(rng, 4) for _ in range(3)], axis=1)
        psi[:, 1] *= 2.0
        with pytest.raises(ChannelError, match="norm"):
            trajectory_step(psi, kraus, rng.random(3))
        psi[:, 1] = np.nan
        with pytest.raises(ChannelError, match="norm"):
            trajectory_step(psi, kraus, rng.random(3))

    def test_vanishing_branch_aborts(self, rng):
        psi = random_state(rng, 4)[:, None]
        zero = np.zeros((4, 4))
        with pytest.raises(ChannelError, match="vanishing probability"):
            trajectory_step(psi, (zero, zero), rng.random(1))


class TestRunSimulation:
    def test_density_deterministic(self):
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        cfg = ChannelConfig(tau=0.5, total_time=2.0, backend="density")
        r1 = run_simulation(model, cfg)
        r2 = run_simulation(model, cfg)
        assert np.array_equal(r1.energy_mean, r2.energy_mean)
        assert np.array_equal(r1.overlap_mean, r2.overlap_mean)

    def test_trajectory_deterministic_and_independent_of_batch(self, monkeypatch):
        """Repeated runs are bit-identical, and the first k trajectories of a
        reps=6 run follow the same paths as a reps=k run."""
        import lindbladprep.channel as channel

        model = ModelSpec("tfim", 2, tfim_g=1.2)
        base = dict(tau=0.5, total_time=4.0, backend="trajectory", seed=3, record_stride=3)
        cfg = ChannelConfig(reps=6, **base)
        r1, r2 = run_simulation(model, cfg), run_simulation(model, cfg)
        assert np.array_equal(r1.energy_mean, r2.energy_mean)
        assert np.array_equal(r1.overlap_se, r2.overlap_se)

        def steps_of(reps):
            seen = []
            exact = channel.trajectory_step

            def spy(*args):
                seen.append(exact(*args))
                return seen[-1]

            monkeypatch.setattr(channel, "trajectory_step", spy)
            run_simulation(model, ChannelConfig(reps=reps, **base))
            monkeypatch.undo()
            return seen

        full = steps_of(6)
        assert len(full) == cfg.n_steps
        for k in (1, 4):
            for (psi_k, clicks_k), (psi_n, clicks_n) in zip(steps_of(k), full, strict=True):
                assert np.array_equal(clicks_k, clicks_n[:k])
                assert np.max(np.abs(psi_k - psi_n[:, :k])) <= 1e-12

    def test_trajectory_matches_scalar_loop(self):
        """Each trajectory stepped on its own -- M1 psi or M0 psi with one
        rng.random() per step from SeedSequence([seed, i]) -- gives the run's
        means, SEs and click rates."""
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        cfg = ChannelConfig(
            tau=0.5, total_time=4.0, backend="trajectory", reps=5, seed=11, record_stride=3
        )
        rec = run_simulation(model, cfg)
        h, spec, a, p = tfim_setup(2)[1:]
        m0, m1 = build_kraus_pair(spec, a, p, cfg, evolution_unitary(spec, cfg.tau))
        obs = np.empty((2, cfg.reps, cfg.n_steps + 1))
        clicks = np.zeros(cfg.n_steps + 1)
        for i in range(cfg.reps):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
            psi = spec.eigenvectors[:, -1]
            for step in range(cfg.n_steps + 1):
                if step:
                    branch1 = m1 @ psi
                    click = rng.random() < np.vdot(branch1, branch1).real
                    psi = branch1 if click else m0 @ psi
                    psi = psi / np.linalg.norm(psi)
                    clicks[step] += click
                for k, x in enumerate((h.matrix, spec.ground_projector())):
                    obs[k, i, step] = np.vdot(psi, x @ psi).real
        assert clicks.sum() > 0
        for name, ref in zip(("energy", "overlap"), obs[:, :, rec.steps]):
            assert np.max(np.abs(getattr(rec, f"{name}_mean") - ref.mean(axis=0))) <= 1e-12
            se = ref.std(axis=0, ddof=1) / np.sqrt(cfg.reps)
            assert np.max(np.abs(getattr(rec, f"{name}_se") - se)) <= 1e-12
        rate = [
            clicks[a + 1 : b + 1].sum() / ((b - a) * cfg.reps)
            for a, b in zip(rec.steps[:-1], rec.steps[1:])
        ]
        assert np.max(np.abs(np.array(rec.meta["health"]["click_rate"]) - rate)) <= 1e-12

    def test_ground_state_click_rate_small(self):
        model = ModelSpec("tfim", 4, tfim_g=1.2)
        cfg = ChannelConfig(
            tau=0.1, total_time=2.0, backend="trajectory", reps=20, seed=4,
            initial_state="ground", record_stride=5,
        )
        rate = run_simulation(model, cfg).meta["health"]["click_rate"]
        assert len(rate) == 4
        assert max(rate) <= 1e-2

    def test_different_seeds_differ(self):
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        base = dict(tau=0.5, total_time=4.0, backend="trajectory", reps=4)
        r1 = run_simulation(model, ChannelConfig(seed=1, **base))
        r2 = run_simulation(model, ChannelConfig(seed=2, **base))
        assert not np.array_equal(r1.overlap_mean, r2.overlap_mean)

    def test_trajectory_matches_density_within_3se(self):
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        base = dict(tau=0.2, total_time=4.0, record_stride=4)
        dens = run_simulation(model, ChannelConfig(backend="density", **base))
        traj = run_simulation(
            model, ChannelConfig(backend="trajectory", reps=2000, seed=17, **base)
        )
        for name in ("overlap", "energy"):
            mean = getattr(traj, f"{name}_mean")
            se = getattr(traj, f"{name}_se")
            ref = getattr(dens, f"{name}_mean")
            z = np.abs(mean[1:] - ref[1:]) / np.maximum(se[1:], 1e-9)
            assert float(np.max(z)) <= 3.0

    def test_record_stride_and_cost_columns(self):
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        cfg = ChannelConfig(tau=0.5, total_time=5.0, backend="density", record_stride=4)
        rec = run_simulation(model, cfg)
        assert list(rec.steps) == [0, 4, 8, 10]
        per = step_cost(rec_params(rec), cfg)
        assert rec.h_time[-1] == pytest.approx(10 * per.hamiltonian_time)
        assert rec.a_gates[-1] == 10 * per.controlled_a_count

    def test_initial_state_options(self):
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        rec = run_simulation(
            model,
            ChannelConfig(tau=0.5, total_time=0.5, backend="density", initial_state="ground"),
        )
        assert rec.overlap_mean[0] == pytest.approx(1.0)
        rec2 = run_simulation(
            model,
            ChannelConfig(
                tau=0.5, total_time=0.5, backend="density", initial_state="eigenstate:1"
            ),
        )
        assert rec2.overlap_mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_initial_overlap_is_zero(self):
        model = ModelSpec("tfim", 4, tfim_g=1.2)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, backend="density")
        rec = run_simulation(model, cfg)
        assert rec.overlap_mean[0] <= 1e-15


def rec_params(rec):
    f = rec.meta["filter"]
    from lindbladprep.filters import FilterParams

    return FilterParams(
        a=f["a"], delta_a=f["delta_a"], b=f["b"], delta_b=f["delta_b"],
        s_radius=f["s_radius"], tau_s=f["tau_s"], m_half=f["m_half"],
        clamp_nonnegative=f["clamp_nonnegative"],
    )
