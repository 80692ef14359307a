from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from lindbladprep.channel import (
    ChannelConfig,
    ChannelError,
    build_kraus_pair,
    build_w,
    channel_step_density,
    evolve,
    invariant_blocks,
    prepare,
    run_simulation,
    spectrum,
    step_cost,
    trajectory_step,
)
from lindbladprep.config import load_run_config, resolve_filter_params
from lindbladprep.filters import default_params, f_time, quadrature_grid
from lindbladprep.jump import dilate, quadrature_jump
from lindbladprep.linalg import (
    STEP_DRIFT,
    DensityMatrix,
    HermitianOperator,
    evolution_unitary,
    hermitian_eig,
    mean_se,
    trace_norm,
)
from lindbladprep.models import ModelSpec, coupling_operator
from lindbladprep.reference import exact_dilated_step
from lindbladprep.verify import CONFIGS, ORACLE_BOUND, ORACLE_SEEDS, oracle_z

from conftest import PAULI_X, PAULI_Y, ground_projector, random_density, random_state


def tfim_setup(sites=2, clamp=False):
    model = ModelSpec("tfim", sites, tfim_g=1.2)
    h = model.hamiltonian()
    spec = hermitian_eig(h)
    p = default_params(spec.spectral_norm, spec.gap, clamp=clamp)
    return model, h, spec, coupling_operator(model), p


def hubbard_setup(sites):
    model = ModelSpec("hubbard1d", sites, hubbard_t=1.0, hubbard_u=4.0)
    return model, model.hamiltonian(), coupling_operator(model)


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
            kraus, _ = build_kraus_pair(spec, a, p, cfg)
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
            (ModelSpec("hubbard1d", 3, hubbard_t=1.0, hubbard_u=4.0), 2),
        ],
        ids=["tfim4-r1", "tfim4-r2", "hubbard2-r2", "hubbard3-r2"],
    )
    def test_matches_block_column_of_w_power(self, model, r, coherent):
        """(M0, M1) is the ancilla-|0> block column of W^r, with e^{-iH tau}
        folded in when the coherent part is on."""
        h = model.hamiltonian()
        spec = hermitian_eig(h)
        a = coupling_operator(model)
        # Hubbard-3's ground level is a spin doublet: take the gap above it
        spacings = np.diff(spec.eigenvalues)
        p = default_params(spec.spectral_norm, spacings[spacings > 1e-9][0])
        cfg = ChannelConfig(
            tau=0.5, total_time=0.5, mode="discrete", r=r, include_coherent=coherent
        )
        (m0, m1), _ = build_kraus_pair(spec, a, p, cfg)
        phi = np.linalg.matrix_power(build_w(spec, a, p, cfg.tau_eff), r)
        n = spec.dim
        fold = evolution_unitary(spec, cfg.tau) if coherent else np.eye(n)
        assert np.max(np.abs(m0 - fold @ phi[:n, :n])) <= 1e-12
        assert np.max(np.abs(m1 - fold @ phi[n:, :n])) <= 1e-12

    def test_coupling_links_blocks_of_h(self):
        """A diagonal H alone splits into singletons; A = X x I joins them in
        pairs, and the pair must follow A across them."""
        h = HermitianOperator(np.diag([0.0, 0.7, 1.5, 2.6]))
        a = HermitianOperator(np.kron(PAULI_X, np.eye(2)))
        assert [list(b) for b in invariant_blocks(h, a)] == [[0, 2], [1, 3]]
        spec = hermitian_eig(h)
        p = default_params(spec.spectral_norm, spec.gap)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, include_coherent=False)
        (m0, m1), _ = build_kraus_pair(spec, a, p, cfg)
        w = build_w(spec, a, p, cfg.tau_eff)
        assert np.max(np.abs(m0 - w[:4, :4])) <= 1e-12
        assert np.max(np.abs(m1 - w[4:, :4])) <= 1e-12
        assert np.max(np.abs(m1)) >= 1e-2

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

    def test_run_records_the_gated_defect(self, monkeypatch):
        import lindbladprep.channel as channel

        checked = []
        exact = channel.isometry_defect

        def recorded(m0, m1):
            checked.append(exact(m0, m1))
            return checked[-1]

        monkeypatch.setattr(channel, "isometry_defect", recorded)
        cfg = ChannelConfig(tau=0.5, total_time=1.0, backend="density")
        rec = run_simulation(ModelSpec("tfim", 2, tfim_g=1.2), cfg)
        assert checked == [rec.meta["health"]["kraus_isometry_defect"]]


class TestBlockedEig:
    @pytest.mark.parametrize("sites", [2, 4])
    def test_matches_dense_spectrum(self, sites):
        model, h, a = hubbard_setup(sites)
        sp = spectrum(model)
        assert sp.dim == h.dim
        assert np.max(np.abs(sp.levels - hermitian_eig(h).eigenvalues)) <= 1e-12
        ranks = np.concatenate([block.ranks for block in sp.blocks])
        assert np.array_equal(np.sort(ranks), np.arange(h.dim))
        for block, idx in zip(sp.blocks, invariant_blocks(h, a), strict=True):
            assert np.array_equal(block.idx, idx)
            assert np.array_equal(block.h.matrix, h.matrix[np.ix_(idx, idx)])
            assert np.array_equal(block.a.matrix, a.matrix[np.ix_(idx, idx)])
            assert np.array_equal(sp.levels[block.ranks], block.spec.eigenvalues)
            assert np.max(np.abs(block.spec.reconstruct() - block.h.matrix)) <= 1e-12

    def test_tfim_equals_dense_spectrum(self):
        model = ModelSpec("tfim", 4, tfim_g=1.2)
        h, a = model.hamiltonian(), coupling_operator(model)
        sp = spectrum(model)
        (block,) = sp.blocks
        dense = hermitian_eig(h)
        assert np.array_equal(block.idx, np.arange(16))
        assert np.array_equal(block.h.matrix, h.matrix)
        assert np.array_equal(block.a.matrix, a.matrix)
        assert np.array_equal(sp.levels[block.ranks], block.spec.eigenvalues)
        assert np.array_equal(block.spec.eigenvalues, dense.eigenvalues)
        assert np.array_equal(block.spec.eigenvectors, dense.eigenvectors)


class TestChannelStepDensity:
    def test_cptp_per_step(self, rng):
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, backend="density")
        kraus, _ = build_kraus_pair(spec, a, p, cfg)
        rho = random_density(rng, 4)
        out = channel_step_density(rho.matrix, kraus)
        assert abs(np.trace(out).real - 1.0) <= 1e-9
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-8

    def test_contractive(self, rng):
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, backend="density")
        kraus, _ = build_kraus_pair(spec, a, p, cfg)
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
            kraus, _ = build_kraus_pair(spec, a, p, cfg)
            out = channel_step_density(rho_g.matrix, kraus)
            assert trace_norm(out - rho_g.matrix) <= 1e-2

    def test_trace_drift_and_nonfinite_entries_fail(self, rng):
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.5, total_time=0.5, include_coherent=False, backend="density")
        (m0, m1), _ = build_kraus_pair(spec, a, p, cfg)
        rho = random_density(rng, 4).matrix
        with pytest.raises(ChannelError, match="trace drifted"):
            channel_step_density(rho, (1.001 * m0, m1))
        # the rule is per step: M0 scaled so that a step gains 1e-8 of trace
        # fails at the first step, and by at most 4e-10 passes ten steps whose
        # gains add up past STEP_DRIFT
        weight = np.trace(m0 @ rho @ m0.conj().T).real
        with pytest.raises(ChannelError, match="trace drifted"):
            channel_step_density(rho, (np.sqrt(1 + 1e-8 / weight) * m0, m1))
        out = rho
        for _ in range(10):
            out = channel_step_density(out, (np.sqrt(1 + 4e-10) * m0, m1))
        assert abs(np.trace(out).real - 1.0) > STEP_DRIFT
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


def waiting_time_loop(psi, kraus, n_steps, rng):
    """The scalar oracle of the waiting-time sampler: one trajectory, one M0
    product per step.  It clicks when its survival since its last click
    falls below its threshold, and then becomes M1 applied to its state
    before that step, renormalised; its first threshold and one after each
    click are ``rng.random()``.  Returns its normalised state after every
    step (step 0 first), its clicked steps, and its last threshold over its
    last survival: the threshold against the survival from the last step."""
    m0, m1 = kraus
    q, x = rng.random(), psi
    states, clicked = [psi], []
    for step in range(1, n_steps + 1):
        after = m0 @ x
        survival = np.vdot(after, after).real
        if survival < q:
            after = m1 @ x
            after /= np.linalg.norm(after)
            survival, q = 1.0, rng.random()
            clicked.append(step)
        x = after
        states.append(x / np.sqrt(survival))
    return states, clicked, q / survival


class FixedDraws:
    """A stand-in generator whose ``random()`` returns ``values`` in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


class TestTrajectoryStep:
    def test_identity_w(self, rng):
        _, h, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.3, total_time=0.3)
        psi = np.stack([random_state(rng, 4) for _ in range(3)], axis=1)
        u = evolution_unitary(spec, cfg.tau)
        # the pair of W = I with e^{-iH tau} folded in, over a span of 3 steps
        kraus = (u, np.zeros_like(u))
        q = rng.random(3)
        out, q_out, clicks = trajectory_step(psi, kraus, u @ u @ u, 3, q, [])
        assert not clicks.any()
        assert np.allclose(out, u @ u @ u @ psi)
        assert np.allclose(q_out, q)

    def test_ground_state_rarely_clicks(self):
        _, _, spec, a, p = tfim_setup(4)
        cfg = ChannelConfig(tau=0.1, total_time=0.1)
        (_, m1), _ = build_kraus_pair(spec, a, p, cfg)
        branch1 = m1 @ spec.ground_state
        assert np.vdot(branch1, branch1).real <= 1e-2

    def test_norm_validation(self, rng):
        """An input column off norm 1, and a survival at the end of the span
        that is not finite or exceeds 1 + span * STEP_DRIFT, are refused."""
        _, _, spec, a, p = tfim_setup(2)
        cfg = ChannelConfig(tau=0.3, total_time=0.3)
        kraus, _ = build_kraus_pair(spec, a, p, cfg)
        power = kraus[0] @ kraus[0]
        psi = np.stack([random_state(rng, 4) for _ in range(3)], axis=1)
        bad = psi.copy()
        bad[:, 1] *= 2.0
        with pytest.raises(ChannelError, match="norm"):
            trajectory_step(bad, kraus, power, 2, rng.random(3), [])
        bad[:, 1] = np.nan
        with pytest.raises(ChannelError, match="norm"):
            trajectory_step(bad, kraus, power, 2, rng.random(3), [])
        for grown in (2 * np.eye(4), np.full((4, 4), np.nan)):
            with pytest.raises(ChannelError, match="norm"):
                trajectory_step(psi, kraus, grown, 2, rng.random(3), [])

    def test_pair_is_views_of_its_stacked_column(self, rng):
        """The pair is one (2, n, n) array whose M0 and M1 are views of it;
        numpy unpacks a plain tuple of the same arrays with the same result."""
        _, _, spec, a, p = tfim_setup(2)
        kraus, _ = build_kraus_pair(spec, a, p, ChannelConfig(tau=0.3, total_time=0.3))
        assert kraus.shape == (2, 4, 4)
        assert all(np.shares_memory(m, kraus) for m in kraus)
        psi = np.stack([random_state(rng, 4) for _ in range(3)], axis=1)
        q = np.full(3, 0.9999)  # every column clicks
        def span_of(pair):
            draws = [FixedDraws([0.5, 0.5]) for _ in range(3)]
            return trajectory_step(psi, pair, kraus[0] @ kraus[0], 2, q, draws)

        got, want = span_of(tuple(kraus)), span_of(kraus)
        assert np.all(want[2] >= 1)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    def test_vanishing_branch_aborts(self, rng):
        psi = random_state(rng, 4)[:, None]
        zero = np.zeros((4, 4))
        for span in (1, 2):
            with pytest.raises(ChannelError, match="vanishing probability"):
                trajectory_step(psi, (zero, zero), zero, span, rng.random(1) + 0.5, [])

    @pytest.mark.parametrize("layout", ["real", "column-strided", "row-strided", "fortran"])
    def test_layout_of_psi_changes_nothing(self, rng, layout):
        """The norm check and the survivals sum squares over a float view: a
        real or non-contiguous block steps exactly as its contiguous complex
        copy, so the view pairs each real part with its own imaginary
        part."""
        _, _, spec, a, p = tfim_setup(2)
        kraus, _ = build_kraus_pair(spec, a, p, ChannelConfig(tau=0.3, total_time=0.3))
        dense = np.stack([random_state(rng, 4) for _ in range(6)], axis=1)
        if layout == "real":
            psi = dense.real / np.linalg.norm(dense.real, axis=0)
        elif layout == "column-strided":
            psi = np.repeat(dense, 2, axis=1)[:, ::2]
        elif layout == "row-strided":
            psi = np.repeat(dense, 2, axis=0)[::2]
        else:
            psi = np.asfortranarray(dense)
        contiguous = np.ascontiguousarray(psi, dtype=complex)
        # q just above or just below each |M0 psi_j|^2: both outcomes occur
        q = np.linalg.norm(kraus[0] @ contiguous, axis=0) ** 2 * np.tile([1.001, 0.999], 3)

        def step(x):
            return trajectory_step(x, kraus, kraus[0], 1, q, [FixedDraws([0.5]) for _ in range(6)])

        (block, q_out, clicks), want = step(psi), step(contiguous)
        assert list(want[2]) == [1, 0] * 3
        assert np.array_equal(clicks, want[2])
        assert np.array_equal(block, want[0])
        assert np.array_equal(q_out, want[1])

    @pytest.mark.parametrize("span", [1, 3, 8])
    def test_span_matches_scalar_loop(self, rng, span):
        """One span of a block against the scalar waiting-time loop, column by
        column: equal clicks, and the state and threshold at the end within
        1e-12.  Thresholds near 1 make a column click at most steps, so
        columns click more than once within a span."""
        _, _, spec, a, p = tfim_setup(2)
        kraus, _ = build_kraus_pair(spec, a, p, ChannelConfig(tau=0.5, total_time=0.5))
        psi = np.stack([random_state(rng, 4) for _ in range(5)], axis=1)
        draws = [np.concatenate([[0.9999, 0.9999], rng.random(span)]) for _ in range(5)]
        power = np.linalg.matrix_power(kraus[0], span)
        out, q, clicks = trajectory_step(
            psi, kraus, power, span, np.array([d[0] for d in draws]),
            [FixedDraws(d[1:]) for d in draws],
        )
        if span > 1:
            assert clicks.max() >= 2
        for j, d in enumerate(draws):
            states, clicked, threshold = waiting_time_loop(psi[:, j], kraus, span, FixedDraws(d))
            assert clicks[j] == len(clicked)
            assert np.max(np.abs(out[:, j] - states[-1])) <= 1e-12
            assert abs(q[j] - threshold) <= 1e-12


class TestRunSimulation:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_mean_se(self, rng, axis):
        """One rep has an error of exactly 0; n >= 2 reps give
        ``std(ddof=1) / sqrt(n)`` bit for bit."""
        one = rng.standard_normal((1, 5)) * 1e300
        mean, se = mean_se(np.moveaxis(one, 0, axis), axis)
        assert np.array_equal(mean, one[0]) and np.array_equal(se, np.zeros(5))
        for n in (2, 3, 100):
            samples = np.moveaxis(rng.standard_normal((n, 5)), 0, axis)
            mean, se = mean_se(samples, axis)
            assert np.array_equal(mean, samples.mean(axis=axis))
            assert np.array_equal(se, samples.std(axis=axis, ddof=1) / np.sqrt(n))

    def test_density_deterministic(self):
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        cfg = ChannelConfig(tau=0.5, total_time=2.0, backend="density")
        r1 = run_simulation(model, cfg)
        r2 = run_simulation(model, cfg)
        assert np.array_equal(r1.energy_mean, r2.energy_mean)
        assert np.array_equal(r1.overlap_mean, r2.overlap_mean)
        # run_simulation is evolve of prepare
        r3 = evolve(prepare(model, cfg), cfg)
        assert list(r3.rows()) == list(r1.rows()) and r3.meta == r1.meta

    def test_evolve_takes_only_run_fields(self):
        """One preparation evolves any backend, reps, seed, record_stride or
        total_time, as a run of that config would; any other field of the
        config must be the prepared one."""
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        cfg = ChannelConfig(tau=0.5, total_time=2.0, record_stride=2, reps=3, seed=4)
        prep = prepare(model, cfg)
        for other in (
            replace(cfg, seed=9), replace(cfg, backend="density"), replace(cfg, reps=5),
            replace(cfg, record_stride=1), replace(cfg, total_time=3.0),
        ):
            rec, ref = evolve(prep, other), run_simulation(model, other)
            assert list(rec.rows()) == list(ref.rows()) and rec.meta == ref.meta
        for name, value in (
            ("tau", 0.25), ("r", 2), ("include_coherent", False), ("initial_state", "ground"),
        ):
            with pytest.raises(ValueError, match=f"'{name}'"):
                evolve(prep, replace(cfg, **{name: value}))
        # a record owns its meta: changing one leaves the next run alone
        evolve(prep, cfg).meta["spectrum"]["gap"] = None
        assert evolve(prep, cfg).meta == run_simulation(model, cfg).meta

    def spans_of(self, monkeypatch, model, cfg):
        """The run of ``cfg`` and what each call of ``trajectory_step``, one
        per record span, returned: (block, thresholds, clicks)."""
        import lindbladprep.channel as channel

        seen = []
        exact = channel.trajectory_step

        def spy(*args):
            seen.append(exact(*args))
            return seen[-1]

        monkeypatch.setattr(channel, "trajectory_step", spy)
        rec = run_simulation(model, cfg)
        monkeypatch.undo()
        return rec, seen

    def test_trajectory_deterministic_and_independent_of_batch(self, monkeypatch):
        """Repeated runs are bit-identical, and the first k trajectories of a
        reps=6 run take the same clicks as a reps=k run, with states and
        thresholds within 1e-12 at every record."""
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        base = dict(tau=0.5, total_time=4.0, backend="trajectory", seed=3, record_stride=3)
        cfg = ChannelConfig(reps=6, **base)
        r1, r2 = run_simulation(model, cfg), run_simulation(model, cfg)
        assert np.array_equal(r1.energy_mean, r2.energy_mean)
        assert np.array_equal(r1.overlap_se, r2.overlap_se)
        r3 = evolve(prepare(model, cfg), cfg)  # run_simulation is evolve of prepare
        assert list(r3.rows()) == list(r1.rows()) and r3.meta == r1.meta

        _, full = self.spans_of(monkeypatch, model, cfg)
        assert len(full) == 3  # records at steps 0, 3, 6 and 8
        assert sum(clicks.sum() for _, _, clicks in full) > 0
        for k in (1, 4):
            _, spans = self.spans_of(monkeypatch, model, ChannelConfig(reps=k, **base))
            for (psi_k, q_k, clicks_k), (psi_n, q_n, clicks_n) in zip(spans, full, strict=True):
                assert np.array_equal(clicks_k, clicks_n[:k])
                assert np.max(np.abs(psi_k - psi_n[:, :k])) <= 1e-12
                assert np.max(np.abs(q_k - q_n[:k])) <= 1e-12

    def test_trajectory_independent_of_record_stride_and_chunk(self, monkeypatch):
        """A trajectory draws one threshold at the start and one per click,
        whatever the records: runs at record_stride 1 and 3 take the same
        clicks, and their states and thresholds agree within 1e-12 at the
        common records.  They are not bit-equal, since M0^3 is not three M0
        products."""
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        base = dict(tau=0.5, total_time=5.0, backend="trajectory", reps=4, seed=5)
        _, ref = self.spans_of(monkeypatch, model, ChannelConfig(record_stride=1, **base))
        _, other = self.spans_of(monkeypatch, model, ChannelConfig(record_stride=3, **base))
        assert len(ref) == 10 and len(other) == 4  # records at 0, 3, 6, 9 and 10
        assert any(clicks.any() for _, _, clicks in ref)
        for (psi, q, clicks), (first, last) in zip(other, [(0, 3), (3, 6), (6, 9), (9, 10)]):
            psi_1, q_1, _ = ref[last - 1]
            assert np.array_equal(clicks, sum(c for _, _, c in ref[first:last]))
            assert np.max(np.abs(psi - psi_1)) <= 1e-12
            assert np.max(np.abs(q - q_1)) <= 1e-12

    def test_trajectory_matches_scalar_loop(self, monkeypatch):
        """Each trajectory on its own in the scalar waiting-time loop, with a
        threshold from SeedSequence([seed, i]) at the start and after each
        click, takes the run's clicks; its states agree within 1e-12 at every
        record, and so do the means, SEs and click rates."""
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        cfg = ChannelConfig(
            tau=0.5, total_time=4.0, backend="trajectory", reps=5, seed=11, record_stride=3
        )
        rec, spans = self.spans_of(monkeypatch, model, cfg)
        h, spec, a, p = tfim_setup(2)[1:]
        kraus, _ = build_kraus_pair(spec, a, p, cfg)
        obs = np.empty((2, cfg.reps, cfg.n_steps + 1))
        clicks = np.zeros((cfg.reps, cfg.n_steps + 1), dtype=int)
        for i in range(cfg.reps):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
            psi0 = spec.eigenvectors[:, -1]
            states, clicked, _ = waiting_time_loop(psi0, kraus, cfg.n_steps, rng)
            clicks[i, clicked] = 1
            for step, psi in enumerate(states):
                for k, x in enumerate((h.matrix, ground_projector(spec))):
                    obs[k, i, step] = np.vdot(psi, x @ psi).real
            for (block, _, span_clicks), (first, last) in zip(spans, zip(rec.steps, rec.steps[1:])):
                assert span_clicks[i] == clicks[i, first + 1 : last + 1].sum()
                assert np.max(np.abs(block[:, i] - states[last])) <= 1e-12
        assert clicks.sum() > 0
        for name, ref in zip(("energy", "overlap"), obs[:, :, rec.steps]):
            assert np.max(np.abs(getattr(rec, f"{name}_mean") - ref.mean(axis=0))) <= 1e-12
            se = ref.std(axis=0, ddof=1) / np.sqrt(cfg.reps)
            assert np.max(np.abs(getattr(rec, f"{name}_se") - se)) <= 1e-12
        rate = [
            clicks[:, a + 1 : b + 1].sum() / ((b - a) * cfg.reps)
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


class TestTrajectoryDensityOracle:
    """The ``verify`` gate ``trajectory-density-oracle``: pooled trajectory
    means against the density run, on three committed configs."""

    def test_runs_are_the_committed_configs(self):
        """``verify.CONFIGS`` are the committed configs, and the gate runs
        three of them."""
        configs = Path(__file__).resolve().parents[1] / "configs"
        assert sorted(CONFIGS) == [
            "hubbard4_continuous", "hubbard4_discrete", "tfim4_continuous", "tfim4_discrete"
        ]
        for name, (model, cfg) in CONFIGS.items():
            committed = load_run_config(configs / f"{name}.json")
            assert committed.model == model
            assert committed.channel == cfg
            assert committed.filter_overrides == {}
        assert set(ORACLE_SEEDS) < set(CONFIGS)

    @pytest.mark.parametrize("name", list(ORACLE_SEEDS))
    def test_gate_on_a_quarter_of_each_run(self, monkeypatch, name):
        """The gate's seeds and bound, at a quarter of each config's
        total_time: 20, 25 and 20.  The density run and every seed evolve
        one preparation: one Kraus build."""
        import lindbladprep.channel as channel

        builds = []
        exact = channel.build_kraus_pair

        def spy(*args):
            builds.append(args[-1])
            return exact(*args)

        monkeypatch.setattr(channel, "build_kraus_pair", spy)
        model, cfg = CONFIGS[name]
        quarter = replace(cfg, total_time=cfg.total_time / 4)
        assert oracle_z(model, quarter, ORACLE_SEEDS[name]) <= ORACLE_BOUND
        assert builds == [quarter]


def dense_rows(model, cfg, psi0):
    """CSV rows and click rates of ``cfg`` (record_stride 1) stepped at full
    size: a dense eigensolve of H, the pair of the full (H, A), the run's
    thresholds, one span of one step per call."""
    h, a = model.hamiltonian(), coupling_operator(model)
    spec = hermitian_eig(h)
    p = resolve_filter_params({}, spec.spectral_norm, spec.gap)
    kraus, _ = build_kraus_pair(spec, a, p, cfg)
    proj = ground_projector(spec)
    if cfg.backend == "density":
        states = [np.outer(psi0, psi0.conj())]
        for _ in range(cfg.n_steps):
            states.append(channel_step_density(states[-1], kraus))
        obs = [[(np.vdot(x, rho).real,) for rho in states] for x in (h.matrix, proj)]
        click_rate = None
    else:
        rngs = [
            np.random.default_rng(np.random.SeedSequence([cfg.seed, i])) for i in range(cfg.reps)
        ]
        states = [np.repeat(psi0[:, None], cfg.reps, axis=1)]
        q = np.array([g.random() for g in rngs])
        click_rate = []
        for _ in range(cfg.n_steps):
            psi, q, clicks = trajectory_step(states[-1], kraus, kraus[0], 1, q, rngs)
            states.append(psi)
            click_rate.append(int(clicks.sum()) / cfg.reps)
        obs = [
            [np.einsum("ij,ij->j", psi.conj(), x @ psi).real for psi in states]
            for x in (h.matrix, proj)
        ]
    per = step_cost(p, cfg)
    rows = []
    for step in range(cfg.n_steps + 1):
        row = [step, step * cfg.tau, step * per.hamiltonian_time, step * per.controlled_a_count]
        for values in (np.asarray(obs[0][step]), np.asarray(obs[1][step])):
            se = values.std(ddof=1) / np.sqrt(values.size) if values.size > 1 else 0.0
            row += [values.mean(), se]
        rows.append(row)
    return rows, click_rate


class TestRestrictedRun:
    """``run_simulation`` evolves only the invariant block of the initial
    eigenstate; stepping the full space gives the same rows."""

    def test_partitions_once_and_eigensolves_only_blocks(self, monkeypatch):
        """Hubbard-4: one partition of the model's (H, A), and no eigensolve
        larger than the largest block (36 states)."""
        import lindbladprep.channel as channel

        model = ModelSpec("hubbard1d", 4, hubbard_t=1.0, hubbard_u=4.0)
        partitions, solved = [], []
        exact_blocks, exact_eig = channel.invariant_blocks, channel.hermitian_eig

        def blocks_spy(*ops):
            partitions.append([op.matrix for op in ops])
            return exact_blocks(*ops)

        def eig_spy(op):
            solved.append(op.dim)
            return exact_eig(op)

        monkeypatch.setattr(channel, "invariant_blocks", blocks_spy)
        monkeypatch.setattr(channel, "hermitian_eig", eig_spy)
        cfg = ChannelConfig(tau=0.5, total_time=1.0, mode="discrete", r=2, backend="density")
        run_simulation(model, cfg)
        assert len(partitions) == 1
        h, a = partitions[0]
        assert np.array_equal(h, model.hamiltonian().matrix)
        assert np.array_equal(a, coupling_operator(model).matrix)
        assert len(solved) == 26 and max(solved) == 36  # 25 blocks of H, then A on one

    @pytest.mark.parametrize("backend", ["density", "trajectory"])
    @pytest.mark.parametrize("initial_state", ["highest_excited", "eigenstate:8"])
    def test_matches_full_size_steps(self, backend, initial_state):
        model, h, _ = hubbard_setup(2)
        cfg = ChannelConfig(
            tau=0.5, total_time=3.0, mode="discrete", r=2, backend=backend, reps=8, seed=5,
            initial_state=initial_state,
        )
        blocks = spectrum(model).blocks

        def place(level):  # the record that holds a level, and its column there, by the ranks
            return next((b, b.ranks.tolist().index(level)) for b in blocks if level in b.ranks)

        k = cfg.eigenstate_index if cfg.eigenstate_index is not None else h.dim - 1
        (home, column), (ground, _) = place(k), place(0)
        # the run's own initial vector at full size: a degenerate level's
        # dense eigenvector would mix sectors
        psi0 = np.zeros(h.dim, dtype=complex)
        psi0[home.idx] = home.spec.eigenvectors[:, column]
        if initial_state == "highest_excited":
            dense = hermitian_eig(h).eigenvectors[:, -1]
            assert abs(abs(np.vdot(dense, psi0)) - 1) <= 1e-12
        else:
            assert home is not ground  # the ground state lies in another block
        rec = run_simulation(model, cfg)
        rows, click_rate = dense_rows(model, cfg, psi0)
        got = list(rec.rows())
        assert len(got) == len(rows)
        for x_row, y_row in zip(got, rows):
            for x, y in zip(x_row, y_row):
                assert abs(x - y) <= 1e-10 + 1e-9 * abs(y)
        if backend == "trajectory":
            assert rec.meta["health"]["click_rate"] == click_rate
        if initial_state == "highest_excited":
            assert rows[-1][6] >= 0.1  # the shared (1, 1) sector relaxes toward the ground state
            assert backend == "density" or sum(click_rate) > 0
        else:
            # H = -t A + const on a one-particle sector: a dark state, and its
            # ground overlap is exactly 0
            assert np.all(rec.overlap_mean == 0)

    @pytest.mark.parametrize("backend", ["density", "trajectory"])
    @pytest.mark.parametrize(
        "model, rows",
        [
            (ModelSpec("hubbard1d", 4, hubbard_t=1.0, hubbard_u=4.0), 36),
            (ModelSpec("tfim", 4, tfim_g=1.2), 16),
        ],
        ids=["hubbard4", "tfim4"],
    )
    def test_steps_see_only_live_blocks(self, monkeypatch, backend, model, rows):
        import lindbladprep.channel as channel

        shapes = []
        for name in ("channel_step_density", "trajectory_step"):
            exact = getattr(channel, name)

            def spy(state, kraus, *rest, exact=exact):
                shapes.append((state.shape[0], *(m.shape for m in kraus)))
                return exact(state, kraus, *rest)

            monkeypatch.setattr(channel, name, spy)
        cfg = ChannelConfig(
            tau=0.5, total_time=1.0, mode="discrete", r=2, backend=backend, reps=3
        )
        run_simulation(model, cfg)
        assert shapes == [(rows, (rows, rows), (rows, rows))] * cfg.n_steps


def rec_params(rec):
    f = rec.meta["filter"]
    from lindbladprep.filters import FilterParams

    p = FilterParams(
        a=f["a"], delta_a=f["delta_a"], b=f["b"], delta_b=f["delta_b"],
        s_radius=f["s_radius"], tau_s=f["tau_s"], clamp_nonnegative=f["clamp_nonnegative"],
    )
    assert p.m_half == f["m_half"]
    return p
