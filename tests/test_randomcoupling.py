import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from lindbladprep import randomcoupling
from lindbladprep.filters import FilterParams, default_params, f_hat
from lindbladprep.jump import exact_jump
from lindbladprep.linalg import (
    STEP_DRIFT,
    DensityMatrix,
    HermitianOperator,
    LinalgError,
    hermitian_eig,
)
from lindbladprep.randomcoupling import (
    RandomCouplingSpec,
    _expm,
    _resampled_evolution,
    concentration_experiment,
    ergodicity_experiment,
    evolve_populations,
    mixing_layers_experiment,
    sample_coupling,
    synthetic_spectrum,
    transition_matrix,
)
from lindbladprep.reference import LindbladSystem, evolve_ode

from conftest import BAD_TIMES


def clamped_params(norm_h, gap):
    return default_params(norm_h, gap, clamp=True)


def rk4_oracle(lam, spec_r, p, p0, tau, n_steps, rngs):
    """The classical k1..k4 RK4 loop of the resampled evolution, with one draw
    of ``n^2`` normals per step and generator: ``re`` and ``im`` of the
    ``m = n(n-1)/2`` entries above the diagonal in row-major order, then the
    diagonal; the state after every step, ``(rep, step, n, n)``."""
    n = lam.size
    m = n * (n - 1) // 2
    above = np.triu_indices(n, 1)
    f = f_hat(lam[:, None] - lam[None, :], p)
    std = np.sqrt(spec_r.sigma / 2)[above]
    coherent = -1j * np.diag(lam)
    rho = np.repeat(np.diag(p0.astype(complex))[None], len(rngs), axis=0)
    states = []

    def generator(x):
        jx = j @ x
        return k @ x @ kh + jx + jx.conj().swapaxes(1, 2)

    for _ in range(n_steps):
        z = np.stack([g.standard_normal(n * n) for g in rngs])
        upper = np.zeros((len(rngs), n, n), dtype=complex)
        upper[:, above[0], above[1]] = z[:, :m] * std + 1j * (z[:, m : 2 * m] * std)
        diag = z[:, 2 * m :] * np.sqrt(np.diag(spec_r.sigma))
        k = f * (upper + upper.conj().swapaxes(1, 2) + diag[:, :, None] * np.eye(n))
        kh = k.conj().swapaxes(1, 2)
        j = coherent - 0.5 * (kh @ k)
        k1 = generator(rho)
        k2 = generator(rho + 0.5 * tau * k1)
        k3 = generator(rho + 0.5 * tau * k2)
        k4 = generator(rho + tau * k3)
        rho = rho + (tau / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = (rho + rho.conj().swapaxes(1, 2)) / 2
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        states.append(rho)
    return np.stack(states, axis=1)


class TestSampleCoupling:
    def test_hermitian_exact(self, rng):
        spec_r = RandomCouplingSpec.uniform(6, 0.7)
        a = sample_coupling(spec_r, rng)
        assert np.max(np.abs(a.matrix - a.matrix.conj().T)) == 0.0

    def test_draws_exactly_n_squared_normals(self):
        """One coupling uses ``n^2`` normals: ``re`` and ``im`` of the
        ``m = 15`` entries above the diagonal in row-major order, then the
        six diagonal entries."""
        sigma = np.full((6, 6), 0.7)
        sigma[1, 3] = sigma[3, 1] = 0.2
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        a = sample_coupling(RandomCouplingSpec(sigma), rng).matrix
        z = twin.standard_normal(36)
        assert rng.bit_generator.state == twin.bit_generator.state
        # (1, 3) is entry 5 + 1 = 6 above the diagonal: row 0 holds entries 0..4
        assert a[1, 3] == np.sqrt(0.1) * z[6] + 1j * (np.sqrt(0.1) * z[15 + 6])
        assert a[3, 1] == np.conj(a[1, 3])
        assert np.array_equal(np.diag(a), np.sqrt(0.7) * z[30:] + 0j)

    def test_zero_mean_and_variance(self):
        rng = np.random.default_rng(42)
        spec_r = RandomCouplingSpec(np.array([[1.0, 0.5], [0.5, 2.0]]))
        n_draws = 10_000
        vals = np.empty(n_draws, dtype=complex)
        sq = np.empty(n_draws)
        for i in range(n_draws):
            a = sample_coupling(spec_r, rng).matrix
            vals[i] = a[0, 1]
            sq[i] = abs(a[0, 1]) ** 2
        sigma = 0.5
        assert abs(vals.mean()) <= 4 * np.sqrt(sigma) / np.sqrt(n_draws)
        assert abs(sq.mean() - sigma) <= 0.1 * sigma

    def test_variance_profile_validation(self):
        with pytest.raises(ValueError):
            RandomCouplingSpec(np.array([[1.0, 0.0], [0.0, 1.0]]))  # zero entries
        with pytest.raises(ValueError):
            RandomCouplingSpec(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_profile_rejected(self, bad):
        # NaN compares False with any bound, so it must not slip past the checks
        with pytest.raises(ValueError, match="finite"):
            RandomCouplingSpec(np.full((3, 3), bad))
        sigma = np.ones((3, 3))
        sigma[0, 2] = sigma[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            RandomCouplingSpec(sigma)


class TestTransitionMatrix:
    def test_two_level_cascade(self):
        lam = np.array([0.0, 1.0])
        p = clamped_params(1.0, 1.0)
        s = 0.8
        t = transition_matrix(lam, p, RandomCouplingSpec.uniform(2, s))
        c = f_hat(-1.0, p)
        expect = np.array([[0.0, c**2 * s], [0.0, -(c**2) * s]])
        assert np.allclose(t.matrix, expect, atol=1e-15)

    def test_generator_property_and_triangularity(self):
        lam = synthetic_spectrum("random", 8, seed=4)
        p = clamped_params(float(np.max(np.abs(lam))), float(lam[1] - lam[0]))
        t = transition_matrix(lam, p, RandomCouplingSpec.uniform(8, 0.3))
        assert np.max(np.abs(t.matrix.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(np.tril(t.matrix, k=-1))) == 0.0

    def test_requires_clamp(self):
        lam = np.array([0.0, 1.0])
        p = default_params(1.0, 1.0)
        with pytest.raises(ValueError):
            transition_matrix(lam, p, RandomCouplingSpec.uniform(2))
        # the ergodicity experiment builds the rate equation before its first step
        with pytest.raises(ValueError, match="requires the clamped filter"):
            ergodicity_experiment(
                lam, RandomCouplingSpec.uniform(2), p, np.array([0.0, 1.0]),
                tau=0.05, t_final=0.5, reps=2,
            )

    def test_non_finite_rates_rejected(self):
        # a NaN eigenvalue used to give NaN rates, which both checks let through
        p = clamped_params(3.0, 1.0)
        with pytest.raises(ValueError, match=r"eigenvalues must be finite, got \[0.0, nan, 2.0, 3.0\]"):
            transition_matrix(np.array([0.0, np.nan, 2.0, 3.0]), p, RandomCouplingSpec.uniform(4))
        with pytest.raises(ValueError, match="transition matrix entries must be finite, got nan"):
            randomcoupling.TransitionMatrix(np.array([[0.0, np.nan], [0.0, np.nan]]))

    def test_ground_indicator_is_null_vector(self):
        lam = synthetic_spectrum("equispaced", 6, span=3.0)
        p = clamped_params(3.0, float(lam[1] - lam[0]))
        t = transition_matrix(lam, p, RandomCouplingSpec.uniform(6))
        e0 = np.zeros(6)
        e0[0] = 1.0
        assert np.max(np.abs(t.matrix @ e0)) == 0.0


class TestEvolvePopulations:
    def setup_method(self):
        self.lam = synthetic_spectrum("equispaced", 8, span=4.0)
        self.p = clamped_params(4.0, float(self.lam[1] - self.lam[0]))
        self.t = transition_matrix(self.lam, self.p, RandomCouplingSpec.uniform(8, 0.5))

    def test_time_zero(self):
        p0 = np.full(8, 1 / 8)
        assert np.allclose(evolve_populations(self.t, p0, 0.0), p0)

    def test_ground_fixed(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert np.allclose(evolve_populations(self.t, e0, 9.7), e0)

    def test_long_time_absorbs_to_ground(self):
        p0 = np.full(8, 1 / 8)
        t_long = 50.0 / self.t.min_outflow_rate()
        out = evolve_populations(self.t, p0, t_long)
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert np.max(np.abs(out - e0)) <= 1e-6

    def test_simplex_preserved(self):
        p0 = np.full(8, 1 / 8)
        for t in (0.1, 1.0, 10.0):
            out = evolve_populations(self.t, p0, t)
            assert out.min() >= -1e-9
            assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_rk4_oracle(self):
        p0 = np.full(8, 1 / 8)
        t_final, n = 2.0, 4000
        dt = t_final / n
        q = p0.copy()
        m = self.t.matrix
        for _ in range(n):
            k1 = m @ q
            k2 = m @ (q + dt / 2 * k1)
            k3 = m @ (q + dt / 2 * k2)
            k4 = m @ (q + dt * k3)
            q = q + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(evolve_populations(self.t, p0, t_final) - q)) <= 1e-8

    # nan used to return NaN populations, inf and 1e308 the same after overflow warnings
    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf, 1e308])
    def test_bad_time_rejected(self, time):
        with pytest.raises(ValueError, match=re.escape(f"< 2^1023, got {time}")):
            evolve_populations(self.t, np.full(8, 1 / 8), time)

    def test_nan_result_rejected(self, monkeypatch):
        monkeypatch.setattr(randomcoupling, "_expm", lambda m: np.full(m.shape, np.nan))
        with pytest.raises(ValueError, match="left the simplex"):
            evolve_populations(self.t, np.full(8, 1 / 8), 1.0)


    @pytest.mark.parametrize("kind", ["equispaced", "clustered", "random"])
    def test_expm_matches_scipy_oracle(self, kind):
        lam = synthetic_spectrum(kind, 8, seed=3)
        p = clamped_params(4.0, float(lam[1] - lam[0]))
        tmat = transition_matrix(lam, p, RandomCouplingSpec.uniform(8)).matrix
        for t in (0.0, 0.01, 0.3, 3.0, 30.0, 300.0):
            assert np.max(np.abs(_expm(tmat * t) - scipy.linalg.expm(tmat * t))) <= 1e-13


class TestErgodicity:
    def test_ground_start_is_inert(self):
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        p = clamped_params(3.0, 1.0)
        e0 = np.zeros(4)
        e0[0] = 1.0
        rep = ergodicity_experiment(
            lam, RandomCouplingSpec.uniform(4, 0.5), p, e0,
            tau=0.05, t_final=0.5, reps=20, seed=8,
        )
        assert np.max(np.abs(rep.mc_mean - e0[None, :])) <= 1e-9
        assert rep.consistent()

    def test_mc_matches_rate_equation(self):
        # desk-size version; the acceptance suite runs the full 500-rep study
        lam = synthetic_spectrum("equispaced", 8, span=4.0)
        p = clamped_params(4.0, float(lam[1] - lam[0]))
        rep = ergodicity_experiment(
            lam, RandomCouplingSpec.uniform(8, 0.5), p, np.full(8, 1 / 8),
            tau=0.01, t_final=2.0, reps=250, seed=3,
        )
        assert rep.consistent()
        assert rep.max_abs_deviation <= 0.03

    def test_two_level_decay_rate(self):
        lam = np.array([0.0, 1.0])
        p = clamped_params(1.0, 1.0)
        s = 0.6
        rate = f_hat(-1.0, p) ** 2 * s
        rep = ergodicity_experiment(
            lam, RandomCouplingSpec.uniform(2, s), p, np.array([0.0, 1.0]),
            tau=0.02, t_final=1.6, reps=800, seed=12,
        )
        # fit the excited-population decay rate from the MC means
        fitted = -np.polyfit(rep.checkpoints, np.log(rep.mc_mean[:, 1]), 1)[0]
        assert fitted == pytest.approx(rate, rel=0.05)

    @pytest.mark.parametrize("reps", [0, 1])
    def test_too_few_reps_rejected(self, reps):
        # one rep has no standard error (std with ddof=1 is NaN)
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        with pytest.raises(ValueError, match="reps must be >= 2"):
            ergodicity_experiment(
                lam, RandomCouplingSpec.uniform(4, 0.5), clamped_params(3.0, 1.0),
                np.full(4, 0.25), tau=0.05, t_final=0.5, reps=reps,
            )

    @pytest.mark.parametrize("tau, t_final, message", BAD_TIMES)
    def test_bad_times_rejected(self, tau, t_final, message):
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        with pytest.raises(ValueError, match=message):
            ergodicity_experiment(
                lam, RandomCouplingSpec.uniform(4, 0.5), clamped_params(3.0, 1.0),
                np.full(4, 0.25), tau=tau, t_final=t_final, reps=2,
            )

    def test_improper_p0_rejected_before_evolving(self):
        # 0.5 on each of 8 levels used to end in a trace-drift error that advised a smaller tau
        lam = synthetic_spectrum("equispaced", 8, span=4.0)
        with pytest.raises(ValueError, match="p0 must be a probability vector"):
            ergodicity_experiment(
                lam, RandomCouplingSpec.uniform(8, 0.5), clamped_params(4.0, 0.5),
                np.full(8, 0.5), tau=0.01, t_final=0.1, reps=4,
            )
        with pytest.raises(ValueError, match="population vector dimension mismatch"):
            ergodicity_experiment(
                lam, RandomCouplingSpec.uniform(8, 0.5), clamped_params(4.0, 0.5),
                np.full(6, 1 / 6), tau=0.01, t_final=0.1, reps=4,
            )

    def test_nan_p0_rejected_before_evolving(self):
        # used to fail after the first step, as a trace drift to nan that advised a smaller tau
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        with pytest.raises(ValueError, match=r"p0 must be a probability vector, got \[nan, 0.5"):
            ergodicity_experiment(
                lam, RandomCouplingSpec.uniform(4, 0.5), clamped_params(3.0, 1.0),
                np.array([np.nan, 0.5, 0.25, 0.25]), tau=0.05, t_final=0.5, reps=2,
            )

    def test_profile_dimension_mismatch_rejected_before_evolving(self):
        # a 6-level profile with 8 levels used to end in a numpy broadcast error
        lam = synthetic_spectrum("equispaced", 8, span=4.0)
        with pytest.raises(ValueError, match="spectrum and variance profile dimension mismatch"):
            ergodicity_experiment(
                lam, RandomCouplingSpec.uniform(6, 0.5), clamped_params(4.0, 0.5),
                np.full(8, 1 / 8), tau=0.01, t_final=0.1, reps=4,
            )

    def test_nan_population_counts_outside(self, monkeypatch):
        exact = randomcoupling._resampled_evolution

        def poisoned(*args, **kwargs):
            steps, populations = exact(*args, **kwargs)
            populations[0, -1, 1] = np.nan  # rep 0, last checkpoint, level 1
            return steps, populations

        monkeypatch.setattr(randomcoupling, "_resampled_evolution", poisoned)
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        rep = ergodicity_experiment(
            lam, RandomCouplingSpec.uniform(4, 0.5), clamped_params(3.0, 1.0),
            np.full(4, 0.25), tau=0.05, t_final=0.5, reps=4, seed=8,
        )
        assert rep.n_outside_3se == 1
        assert not rep.consistent()


    def test_memory_follows_the_populations(self):
        """Only the populations are recorded, into one array allocated before
        the first step: at 500 reps the traced peak is about 5.8 MiB, where
        keeping every rep's 8x8 state at each checkpoint, and a stacked copy
        of them, took 12.9 MiB."""
        lam = synthetic_spectrum("equispaced", 8, span=4.0)
        args = (lam, RandomCouplingSpec.uniform(8, 0.5), clamped_params(4.0, float(lam[1] - lam[0])),
                np.full(8, 1 / 8))
        tracemalloc.start()
        try:
            rep = ergodicity_experiment(*args, tau=0.01, t_final=0.5, reps=500, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.mc_mean.shape == (randomcoupling.N_CHECKPOINTS, 8)
        assert peak < 8 * 2**20


class TestResampledEvolution:
    # unsorted on purpose: K = F o A holds in any level order
    lam = np.array([0.0, 2.5, 1.0, 1.75])
    p = clamped_params(2.5, 1.0)
    p0 = np.array([0.1, 0.4, 0.3, 0.2])

    def evolve(self, rngs, spec_r, tau, t_final, record=None):
        return _resampled_evolution(self.lam, spec_r, self.p, self.p0, tau, t_final, rngs, record)

    def test_one_step_matches_rk4_oracle(self):
        spec_r = RandomCouplingSpec.uniform(4, 0.5)
        a = sample_coupling(spec_r, np.random.default_rng(11))
        h = HermitianOperator(np.diag(self.lam))
        k = exact_jump(hermitian_eig(h), a, self.p)
        rho0 = DensityMatrix(np.diag(self.p0), check_positivity=False)
        expect = evolve_ode(LindbladSystem(h, k), rho0, 0.2, 0.2).matrix
        # the kernel's first draw from an identically seeded stream is the same coupling
        _, states = self.evolve([np.random.default_rng(11)], spec_r, 0.2, 0.2)
        assert np.max(np.abs(states[0, -1] - expect)) <= 1e-12

    def test_many_steps_match_rk4_oracle(self):
        # 200 steps of 3 reps on 8 levels cross a boundary of the coupling draws
        lam = synthetic_spectrum("equispaced", 8, span=4.0)
        p = clamped_params(4.0, float(lam[1] - lam[0]))
        spec_r = RandomCouplingSpec.uniform(8, 0.5)
        p0 = np.full(8, 1 / 8)
        assert randomcoupling._DRAW_CHUNK_BYTES // (8 * 64 * 3) < 200

        def rngs():
            return [np.random.default_rng(np.random.SeedSequence([9, i])) for i in range(3)]

        steps, states = _resampled_evolution(lam, spec_r, p, p0, 0.01, 2.0, rngs(), 200)
        assert list(steps) == list(range(1, 201))
        expect = rk4_oracle(lam, spec_r, p, p0, 0.01, 200, rngs())
        assert np.max(np.abs(states - expect)) <= 1e-13

    @pytest.mark.parametrize("record", [None, 10], ids=["last-step", "checkpoints"])
    @pytest.mark.parametrize(
        "levels, span, reps, tau, t_final",
        [(8, 4.0, 50, 0.01, 3.0), (4, 3.0, 200, 0.0125, 2.0)],
        ids=["ergodicity", "concentration"],
    )
    def test_states_hermitian_bit_for_bit(self, levels, span, reps, tau, t_final, record):
        """Each stage adds ``G + G^dag``, so no step needs re-Hermitizing."""
        lam = synthetic_spectrum("equispaced", levels, span=span)
        p = clamped_params(span, float(lam[1] - lam[0]))
        rngs = [np.random.default_rng(np.random.SeedSequence([3, i])) for i in range(reps)]
        _, states = _resampled_evolution(lam, RandomCouplingSpec.uniform(levels, 0.5), p,
                                         np.full(levels, 1 / levels), tau, t_final, rngs, record)
        assert states.shape[:2] == (reps, 1 if record is None else record)
        assert np.array_equal(states, states.conj().swapaxes(-1, -2))

    def test_independent_of_draw_chunk_size(self, monkeypatch):
        spec_r = RandomCouplingSpec.uniform(4, 0.5)

        def run(chunk_bytes):
            monkeypatch.setattr(randomcoupling, "_DRAW_CHUNK_BYTES", chunk_bytes)
            rngs = [np.random.default_rng(np.random.SeedSequence([4, i])) for i in range(2)]
            return self.evolve(rngs, spec_r, 0.05, 0.5, record=4)[1]

        # one step, three steps (10 = 3 + 3 + 3 + 1) and all ten steps per draw
        per_step = 8 * 16 * 2
        states = [run(c * per_step) for c in (1, 3, 10)]
        assert np.array_equal(states[0], states[1])
        assert np.array_equal(states[0], states[2])

    @pytest.mark.parametrize("k", [1, 4])
    def test_rep_independent_of_batch_size(self, k):
        spec_r = RandomCouplingSpec.uniform(4, 0.5)

        def run(reps):
            rngs = [np.random.default_rng(np.random.SeedSequence([7, i])) for i in range(reps)]
            return self.evolve(rngs, spec_r, 0.05, 0.5, record=3)

        steps6, states6 = run(6)
        steps_k, states_k = run(k)
        assert list(steps6) == list(steps_k) == [1, 6, 10]
        assert np.array_equal(states6[:k], states_k)

    def test_repeated_checkpoints_kept_once(self):
        # 5 evenly spaced checkpoints over 3 steps round to steps 1, 2, 2, 2, 3
        spec_r = RandomCouplingSpec.uniform(4, 0.5)
        steps, states = self.evolve([np.random.default_rng(0)], spec_r, 0.05, 0.15, record=5)
        assert list(steps) == [1, 2, 3]
        assert states.shape[:2] == (1, 3)

    def test_trace_drift_fails(self):
        # RK4 preserves the trace exactly; roundoff in a wildly unstable
        # step is what shows up as drift
        spec_r = RandomCouplingSpec.uniform(4, 1e4)
        with pytest.raises(LinalgError, match="trace"):
            self.evolve([np.random.default_rng(0)], spec_r, 10.0, 10.0)

        class ScaledStream:
            """Normals times 80: rounding in so large a step moves the trace
            by 1.1e-8 to 3.5e-8 for these seeds, past ``STEP_DRIFT`` and
            within the former 1e-6."""

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def standard_normal(self, size):
                return 80.0 * self.rng.standard_normal(size)

        spec_r = RandomCouplingSpec.uniform(4, 0.5)
        with pytest.raises(LinalgError, match="drifted to") as failed:
            self.evolve([ScaledStream(seed) for seed in (9, 4, 5)], spec_r, 0.05, 0.05)
        tr = float(str(failed.value).split("drifted to ")[1].split(";")[0])
        assert STEP_DRIFT < abs(tr - 1.0) <= 1e-6

    def test_nan_rep_fails(self):
        class NanStream:
            def standard_normal(self, size):
                return np.full(size, np.nan)

        rngs = [np.random.default_rng(0), NanStream()]
        spec_r = RandomCouplingSpec.uniform(4, 0.5)
        with pytest.raises(LinalgError, match="rep 1 drifted to nan"):
            self.evolve(rngs, spec_r, 0.05, 0.05)

    def test_t_final_must_be_multiple_of_tau(self):
        spec_r = RandomCouplingSpec.uniform(4, 0.5)
        with pytest.raises(ValueError, match="multiple of tau"):
            self.evolve([np.random.default_rng(0)], spec_r, 0.3, 1.0)
        # rounds to zero steps, which used to end in "need at least one array to stack"
        with pytest.raises(ValueError, match="positive multiple of tau"):
            self.evolve([np.random.default_rng(0)], spec_r, 1.0, 1e-12)

    @pytest.mark.parametrize("tau, t_final, message", BAD_TIMES)
    def test_bad_times_refused_before_any_draw(self, tau, t_final, message):
        class NoDraws:
            def standard_normal(self, size):
                raise AssertionError("drew before checking tau and t_final")

        with pytest.raises(ValueError, match=message):
            self.evolve([NoDraws()], RandomCouplingSpec.uniform(4, 0.5), tau, t_final)


class TestMixingLayers:
    def test_two_level_crossing_time(self):
        lam = np.array([0.0, 1.0])
        p = clamped_params(1.0, 1.0)
        s = 0.8
        rate = f_hat(-1.0, p) ** 2 * s
        rep = mixing_layers_experiment(
            lam, RandomCouplingSpec.uniform(2, s), p, [1, 0],
            t_max=4.0 / rate, n_times=4000,
        )
        # tail mass decays as 0.5 exp(-rate t); schedule for layer 1 is 1/4
        expect = np.log(0.5 / 0.25) / rate
        assert rep.crossing_times[0] == pytest.approx(expect, rel=0.2)

    def test_zero_rate_flagged(self):
        lam = np.array([0.0, 1.0, 1.5])
        # make the middle level feed the ground band at effectively zero rate
        p = FilterParams(
            a=0.9, delta_a=0.05, b=0.4, delta_b=0.02, s_radius=10.0, tau_s=0.5,
            clamp_nonnegative=True,
        )
        sig = RandomCouplingSpec(np.full((3, 3), 1e-6) + np.eye(3) * 1e-6)
        rep = mixing_layers_experiment(lam, sig, p, [2, 1, 0], rate_floor=1e-8, t_max=1.0)
        assert rep.violated_layers  # the starved transition is reported

    def test_tfim4_spectrum_monotone_tails(self):
        from lindbladprep.linalg import hermitian_eig
        from lindbladprep.models import build_tfim

        spec = hermitian_eig(build_tfim(4, 1.2).dense())
        lam = spec.eigenvalues
        p = clamped_params(spec.spectral_norm, spec.gap)
        rep = mixing_layers_experiment(
            lam, RandomCouplingSpec.uniform(16, 0.5), p, [15, 7, 3, 0], t_max=30.0
        )
        assert rep.tail_monotone
        assert not rep.violated_layers

    def test_threshold_validation(self):
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        p = clamped_params(3.0, 1.0)
        with pytest.raises(ValueError):
            mixing_layers_experiment(lam, RandomCouplingSpec.uniform(4), p, [3, 3, 0])
        with pytest.raises(ValueError):
            mixing_layers_experiment(lam, RandomCouplingSpec.uniform(4), p, [2, 0])

    @pytest.mark.parametrize(
        "thresholds",
        [
            [7, 3, 3, 0],  # used to end in "min() arg is an empty sequence"
            [7, 3, -2],  # used to slice rows with -1 and report rate 0.0 at time 0.0
            [],  # used to raise IndexError
            [7],
            [6, 3, 0],
            [7, 3.0, 0],
            [7, True],
        ],
    )
    def test_bad_thresholds_rejected(self, thresholds):
        lam = synthetic_spectrum("equispaced", 8, span=4.0)
        p = clamped_params(4.0, float(lam[1] - lam[0]))
        with pytest.raises(ValueError, match="thresholds must be two or more integers"):
            mixing_layers_experiment(lam, RandomCouplingSpec.uniform(8), p, thresholds, n_times=3)

    @pytest.mark.parametrize(
        "t_max, n_times, message",
        [
            # used to return crossing_times == [None]
            pytest.param(np.nan, 3, "t_max must be finite and positive, got nan", id="t_max-nan"),
            pytest.param(np.inf, 3, "t_max must be finite and positive, got inf", id="t_max-inf"),
            pytest.param(0.0, 3, "t_max must be finite and positive, got 0.0", id="t_max-zero"),
            pytest.param(-1.0, 3, "t_max must be finite and positive, got -1.0", id="t_max-negative"),
            # used to end in numpy's "need at least one array to stack"
            pytest.param(1.0, 0, "n_times must be an integer >= 1, got 0", id="n_times-zero"),
            pytest.param(1.0, -2, "n_times must be an integer >= 1, got -2", id="n_times-negative"),
            pytest.param(1.0, 2.5, "n_times must be an integer >= 1, got 2.5", id="n_times-fraction"),
            pytest.param(1.0, 3.0, "n_times must be an integer >= 1, got 3.0", id="n_times-float"),
            pytest.param(1.0, True, "n_times must be an integer >= 1, got True", id="n_times-bool"),
        ],
    )
    def test_bad_times_rejected_before_any_work(self, monkeypatch, t_max, n_times, message):
        def no_work(*args):
            raise AssertionError("built the transition matrix before checking t_max and n_times")

        monkeypatch.setattr(randomcoupling, "transition_matrix", no_work)
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        p = clamped_params(3.0, float(lam[1] - lam[0]))
        with pytest.raises(ValueError, match=message):
            mixing_layers_experiment(
                lam, RandomCouplingSpec.uniform(4), p, [3, 0], t_max=t_max, n_times=n_times
            )

    def test_nan_eigenvalue_rejected(self):
        # used to return rates [nan] and crossing times [None]
        p = clamped_params(3.0, 1.0)
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            mixing_layers_experiment([0.0, np.nan, 2.0, 3.0], RandomCouplingSpec.uniform(4), p, [3, 0])

    def test_numpy_integer_thresholds_accepted(self):
        lam = synthetic_spectrum("equispaced", 8, span=4.0)
        p = clamped_params(4.0, float(lam[1] - lam[0]))
        thresholds = list(np.array([7, 3, 0]))
        rep = mixing_layers_experiment(lam, RandomCouplingSpec.uniform(8), p, thresholds, n_times=3)
        assert rep.thresholds == [7, 3, 0] and len(rep.rates) == 2


class TestConcentration:
    def test_slope_in_sqrt_regime(self):
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        p = clamped_params(3.0, 1.0)
        rep = concentration_experiment(
            lam, RandomCouplingSpec.uniform(4, 0.5), p, np.full(4, 0.25),
            taus=[0.1, 0.05, 0.025, 0.0125], t_final=2.0, reps=200, seed=5,
        )
        assert 0.4 <= rep.slope <= 0.7

    def test_halving_tau_shrinks_deviation(self):
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        p = clamped_params(3.0, 1.0)
        rep = concentration_experiment(
            lam, RandomCouplingSpec.uniform(4, 0.5), p, np.full(4, 0.25),
            taus=[0.1, 0.05], t_final=1.0, reps=100, seed=6,
        )
        assert rep.deviations[1] < rep.deviations[0]

    def test_se_shrinks_with_reps(self):
        # sample standard error needs n >= 2; compare 25 vs 400 reps and
        # expect the 1/sqrt(reps) ratio of 4 within 30%
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        p = clamped_params(3.0, 1.0)
        kwargs = dict(taus=[0.05], t_final=1.0, seed=9)
        few = concentration_experiment(
            lam, RandomCouplingSpec.uniform(4, 0.5), p, np.full(4, 0.25), reps=25, **kwargs
        )
        many = concentration_experiment(
            lam, RandomCouplingSpec.uniform(4, 0.5), p, np.full(4, 0.25), reps=400, **kwargs
        )
        ratio = few.deviation_se[0] / many.deviation_se[0]
        assert ratio == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("reps", [0, 1])
    def test_too_few_reps_rejected(self, reps):
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        with pytest.raises(ValueError, match="reps must be >= 2"):
            concentration_experiment(
                lam, RandomCouplingSpec.uniform(4, 0.5), clamped_params(3.0, 1.0),
                np.full(4, 0.25), taus=[0.05], t_final=1.0, reps=reps,
            )

    @pytest.mark.parametrize("tau, t_final, message", BAD_TIMES)
    def test_bad_times_rejected(self, tau, t_final, message):
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        with pytest.raises(ValueError, match=message):
            concentration_experiment(
                lam, RandomCouplingSpec.uniform(4, 0.5), clamped_params(3.0, 1.0),
                np.full(4, 0.25), taus=[tau, 0.05], t_final=t_final, reps=2,
            )

    def test_bad_later_tau_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before checking every tau")

        monkeypatch.setattr(randomcoupling, "step_draws", no_draws)
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        with pytest.raises(ValueError, match="tau must be finite and positive, got 0.0"):
            concentration_experiment(
                lam, RandomCouplingSpec.uniform(4, 0.5), clamped_params(3.0, 1.0),
                np.full(4, 0.25), taus=[0.05, 0.0], t_final=1.0, reps=2,
            )

    def test_empty_taus_rejected_before_any_draw(self, monkeypatch):
        # used to return an empty report with slope nan
        def no_draws(*args):
            raise AssertionError("drew with no tau to run")

        monkeypatch.setattr(randomcoupling, "step_draws", no_draws)
        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        with pytest.raises(ValueError, match=r"taus must hold at least one resampling step, got \[\]"):
            concentration_experiment(
                lam, RandomCouplingSpec.uniform(4, 0.5), clamped_params(3.0, 1.0),
                np.full(4, 0.25), taus=[], t_final=1.0, reps=2,
            )


class TestReportOutputs:
    def test_csv_and_json_emission(self, tmp_path):
        import json

        from lindbladprep.randomcoupling import write_summary_json

        lam = synthetic_spectrum("equispaced", 4, span=3.0)
        p = clamped_params(3.0, 1.0)
        sig = RandomCouplingSpec.uniform(4, 0.5)
        erg = ergodicity_experiment(
            lam, sig, p, np.full(4, 0.25), tau=0.05, t_final=0.5, reps=20, seed=2
        )
        erg.write_csv(tmp_path / "populations.csv")
        pop_head = (tmp_path / "populations.csv").read_text().splitlines()[0]
        assert pop_head == "time,level,mc_mean,mc_se,rate_equation"
        write_summary_json(tmp_path / "summary.json", ergodicity=erg)
        data = json.loads((tmp_path / "summary.json").read_text())
        assert "consistent" in data["ergodicity"]


class TestSyntheticSpectrum:
    def test_kinds(self):
        eq = synthetic_spectrum("equispaced", 5, span=2.0)
        assert np.allclose(np.diff(eq), 0.5)
        cl = synthetic_spectrum("clustered", 6, span=4.0)
        assert np.all(np.diff(cl) >= 0)
        ra = synthetic_spectrum("random", 6, seed=2)
        assert ra[0] == 0.0 and np.all(np.diff(ra) >= 0)
        with pytest.raises(ValueError):
            synthetic_spectrum("weird", 4)

    # each used to return a spectrum (descending, NaN, flat or all zero) or end
    # in numpy's "high - low < 0"
    @pytest.mark.parametrize(
        "kind, span, low",
        [
            ("equispaced", -3.0, 0), ("equispaced", np.nan, 0), ("clustered", 0.0, 0),
            ("clustered", np.inf, 0), ("random", 0.5, 1), ("random", 1.0, 1),
        ],
    )
    def test_bad_span_rejected(self, kind, span, low):
        message = f"span must be finite and greater than {low} for kind '{kind}', got {span}"
        with pytest.raises(ValueError, match=message):
            synthetic_spectrum(kind, 4, span=span)
