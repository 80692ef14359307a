"""Self-verification suite behind the ``verify`` CLI subcommand.

:data:`CHECKS` is the single definition of every check, including the
twelve headline acceptance criteria, which carry their number and claim;
``tests/test_acceptance.py`` parametrizes over those entries.  ``fast``
runs oracle checks on systems of dimension <= 16 in well under a minute;
``full`` adds the benchmark convergence runs and scaling-law fits.  Every
check returns a pass flag and a one-line numeric detail that states its
threshold, collected into a machine-readable report.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .channel import (
    ChannelConfig,
    build_kraus_pair,
    build_w,
    build_w_naive,
    channel_step_density,
    evolve,
    prepare,
    run_simulation,
    spectrum,
)
from .filters import default_params, f_hat, f_time, quadrature_grid
from .jump import dilate, exact_jump, ground_residual, quadrature_jump
from .linalg import (
    STEP_DRIFT,
    DensityMatrix,
    HermitianOperator,
    evolution_unitary,
    hermitian_eig,
    trace_norm,
)
from .models import ModelSpec
from .randomcoupling import (
    RandomCouplingSpec,
    concentration_experiment,
    ergodicity_experiment,
    evolve_populations,
    synthetic_spectrum,
    transition_matrix,
)
from .reference import (
    LindbladSystem,
    evolve_ode,
    exact_dilated_step,
    superoperator_expm_step,
)

__all__ = ["CHECKS", "Check", "CheckResult", "run_verify", "quadrature_convergence_check"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _tfim_setup(sites: int = 2, clamp: bool = False):
    sp = spectrum(ModelSpec("tfim", sites, tfim_g=1.2))  # TFIM is one block
    return sp.h, sp.specs[0], sp.a, sp.params.with_clamp(clamp)


def _random_density(rng, dim) -> DensityMatrix:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def check_eig_reconstruction():
    rng = np.random.default_rng(0)
    worst = 0.0
    for dim in (2, 5, 11, 16):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = HermitianOperator((x + x.conj().T) / 2)
        spec = hermitian_eig(h)
        scale = max(1.0, np.linalg.norm(h.matrix))
        worst = max(worst, np.linalg.norm(spec.reconstruct() - h.matrix) / scale)
    return worst <= 1e-9, f"max relative reconstruction residual {worst:.2e}"


def check_unitary_group_law():
    _, spec, _, _ = _tfim_setup()
    u1 = evolution_unitary(spec, 0.37)
    u2 = evolution_unitary(spec, 1.91)
    u12 = evolution_unitary(spec, 0.37 + 1.91)
    err = np.max(np.abs(u1 @ u2 - u12))
    return err <= 1e-9, f"U(t1)U(t2) vs U(t1+t2): {err:.2e}"


def check_trace_norm_oracle():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    direct = trace_norm(m)
    oracle = float(np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0))))
    err = abs(direct - oracle)
    return err <= 1e-10, f"SVD vs eigenvalue route: {err:.2e}"


def check_filter_values():
    p = default_params(1.0, 1.0)
    from scipy.special import erf

    v0 = f_hat(0.0, p)
    expect = 0.5 * (erf(5.0) - erf(1.0))
    t0 = f_time(0.0, p)
    nodes, weights = quadrature_grid(p)
    sum_ok = abs(np.sum(weights) - 2 * p.grid_radius) <= 1e-12
    ok = (
        abs(v0 - expect) <= 1e-12
        and abs(t0 - 1.5 / (2 * np.pi)) <= 1e-12
        and f_hat(0.0, p.with_clamp(True)) == 0.0
        and sum_ok
    )
    return ok, f"fhat(0)={v0:.6f}, f(0)={t0.real:.6f}, sum(w)-2G ok={sum_ok}"


def quadrature_convergence_check(grid=None):
    """|K - K_s| on TFIM-2 under the parameter rule (Lemma-2 scale).

    ``grid`` injects alternative (nodes, weights); the test harness uses
    it to confirm a corrupted rule is caught.
    """
    _, spec, a, p = _tfim_setup()
    k_exact = exact_jump(spec, a, p)
    k_quad = quadrature_jump(spec, a, p, grid=grid)
    err = float(np.linalg.norm(k_exact.matrix - k_quad.matrix, 2))
    return err <= 1e-3 * a.norm(), f"|K - K_s| = {err:.2e} (bound {1e-3 * a.norm():.1e})"


def check_ground_fixed_point():
    _, spec, a, p = _tfim_setup(clamp=True)
    res = ground_residual(exact_jump(spec, a, p), spec)
    return res <= 1e-12, f"|K psi0| = {res:.2e}"


def check_dilation_spectrum():
    _, spec, a, p = _tfim_setup()
    k = quadrature_jump(spec, a, p)
    kd = dilate(k)
    evals = np.sort(np.linalg.eigvalsh(kd.matrix))
    sv = np.linalg.svd(k.matrix, compute_uv=False)
    expect = np.sort(np.concatenate([sv, -sv]))
    err = float(np.max(np.abs(evals - expect)))
    return err <= 1e-10, f"eig(Ktilde) vs +/-sv(K): {err:.2e}"


def check_lemma1_slope():
    _, spec, a, p = _tfim_setup()
    k = quadrature_jump(spec, a, p)
    kd = dilate(k)
    rng = np.random.default_rng(5)
    rho = _random_density(rng, 4)
    h0 = HermitianOperator(np.zeros((4, 4)))
    sys_k = LindbladSystem(h0, k)
    taus = np.logspace(-3, -1, 5)
    errs = [
        trace_norm(exact_dilated_step(kd, rho, t).matrix - superoperator_expm_step(sys_k, rho, t).matrix)
        for t in taus
    ]
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    return abs(slope - 2.0) <= 0.2, f"log-log slope {slope:.3f} (2.0 +/- 0.2)"


def check_channel_trotter_slope():
    _, spec, a, p = _tfim_setup()
    kd = dilate(quadrature_jump(spec, a, p))
    rng = np.random.default_rng(11)
    rho = _random_density(rng, 4)
    u_g = evolution_unitary(spec, p.grid_radius)
    rho_rot = DensityMatrix(u_g @ rho.matrix @ u_g.conj().T, check_positivity=False)
    taus = np.logspace(-2, 0, 5)
    errs = []
    for t in taus:
        cfg = ChannelConfig(
            tau=t, total_time=t, r=1, include_coherent=False, backend="density"
        )
        kraus, _ = build_kraus_pair(spec, a, p, cfg)
        out = channel_step_density(rho.matrix, kraus)
        ref = exact_dilated_step(kd, rho_rot, t)
        errs.append(trace_norm(u_g @ out @ u_g.conj().T - ref.matrix))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    return abs(slope - 2.0) <= 0.25, f"slope {slope:.3f} (2.0 +/- 0.25, frame-aligned reference)"


def check_cancellation_identity():
    _, spec, a, p = _tfim_setup(4)
    tau = 0.3
    w = build_w(spec, a, p, tau)
    naive = build_w_naive(spec, a, p, tau)
    frame = np.kron(np.eye(2), evolution_unitary(spec, p.grid_radius))
    err = float(np.max(np.abs(naive - frame @ w @ frame.conj().T)))
    return err <= 1e-10, f"max deviation {err:.1e} (<= 1e-10) on a 4-qubit instance"


def check_cptp_invariants():
    _, spec, a, p = _tfim_setup()
    cfg = ChannelConfig(tau=0.5, total_time=0.5, r=1, include_coherent=True, backend="density")
    kraus, _ = build_kraus_pair(spec, a, p, cfg)
    rng = np.random.default_rng(9)
    worst_tr, worst_pos, worst_contract = 0.0, 0.0, 0.0
    for _ in range(50):
        r1, r2 = _random_density(rng, 4), _random_density(rng, 4)
        o1 = channel_step_density(r1.matrix, kraus)
        o2 = channel_step_density(r2.matrix, kraus)
        worst_tr = max(worst_tr, abs(float(np.trace(o1).real) - 1.0))
        worst_pos = max(worst_pos, -float(np.min(np.linalg.eigvalsh(o1))))
        gain = trace_norm(o1 - o2) - trace_norm(r1.matrix - r2.matrix)
        worst_contract = max(worst_contract, gain)
    ok = worst_tr <= 1e-9 and worst_pos <= 1e-8 and worst_contract <= 1e-9
    return ok, (
        f"trace {worst_tr:.1e} (<= 1e-9), negativity {worst_pos:.1e} (<= 1e-8), "
        f"distance gain {worst_contract:.1e} (<= 1e-9)"
    )


def check_transition_matrix():
    lam = synthetic_spectrum("equispaced", 8, span=4.0)
    p = default_params(4.0, float(lam[1] - lam[0]), clamp=True)
    sig = RandomCouplingSpec.uniform(8, 0.5)
    t = transition_matrix(lam, p, sig)
    colsum = float(np.max(np.abs(t.matrix.sum(axis=0))))
    lower = float(np.max(np.abs(np.tril(t.matrix, k=-1))))
    e0 = np.zeros(8)
    e0[0] = 1.0
    fixed = float(np.max(np.abs(evolve_populations(t, e0, 7.3) - e0)))
    ok = colsum <= 1e-12 and lower == 0.0 and fixed <= 1e-12
    return ok, f"colsum {colsum:.1e}, lower-tri {lower:.1e}, e0 fixed {fixed:.1e}"


def check_trajectory_density_consistency():
    cfg = ChannelConfig(tau=0.2, total_time=4.0, r=1, record_stride=5, backend="density")
    prep = prepare(ModelSpec("tfim", 2, tfim_g=1.2), cfg)
    dens = evolve(prep, cfg)
    traj = evolve(prep, replace(cfg, backend="trajectory", reps=400, seed=21))
    z = np.abs(traj.overlap_mean - dens.overlap_mean) / np.maximum(traj.overlap_se, 1e-6)
    worst = float(np.max(z[1:]))
    return worst <= 3.0, f"max |z| over checkpoints: {worst:.2f}"


# The committed configs that the checks run, as in configs/<name>.json.
_TFIM4 = ModelSpec("tfim", 4, tfim_g=1.2)
_HUBBARD4 = ModelSpec("hubbard1d", 4, hubbard_t=1.0, hubbard_u=4.0)
CONFIGS = {
    "tfim4_continuous": (_TFIM4, ChannelConfig(
        tau=0.1, total_time=80.0, reps=100, seed=7, record_stride=10)),
    "hubbard4_continuous": (_HUBBARD4, ChannelConfig(
        tau=0.025, total_time=100.0, reps=100, seed=7, record_stride=40)),
    "tfim4_discrete": (_TFIM4, ChannelConfig(
        tau=1.0, total_time=80.0, mode="discrete", reps=100, seed=7)),
    "hubbard4_discrete": (_HUBBARD4, ChannelConfig(
        tau=0.5, total_time=100.0, mode="discrete", r=2, reps=100, seed=7, record_stride=5)),
}

# The statistical oracle gate: three committed configs, each run at a seed
# list fixed before the waiting-time sampler was measured against it.
ORACLE_SEEDS = {"tfim4_continuous": range(40), "hubbard4_continuous": range(20),
                "tfim4_discrete": range(20)}
ORACLE_BOUND = 4.0


def oracle_z(model: ModelSpec, cfg: ChannelConfig, seeds) -> float:
    """Largest z of the trajectory means, pooled over ``seeds``, against the
    density run of ``cfg``, over energy and overlap at every record but the
    first.

    Every seed runs ``cfg.reps`` trajectories, so the pooled mean is the
    mean of the run means and N = seeds x reps.  At step k, with mu the
    density value, ``z = max(0, |mean - mu| - k STEP_DRIFT c) / sqrt((mu -
    lo)(hi - mu) / N)``: ``[lo, hi]`` is ``[0, 1]`` for the overlap and
    ``[E0, Emax]`` for the energy, and c is 1 and ``max(1, |H|)``.  The
    denominator is the Bhatia-Davis bound on the variance of a variable in
    ``[lo, hi]`` with mean mu, which, unlike the sample SE, does not
    collapse while no trajectory has reached a rare state; the subtracted
    term is the density run's own drift bound.  A record with no excess
    has z = 0, whatever its denominator.  All runs evolve one preparation.
    """
    prep = prepare(model, cfg)
    dens = evolve(prep, replace(cfg, backend="density"))
    runs = [evolve(prep, replace(cfg, seed=seed)) for seed in seeds]
    n = len(runs) * cfg.reps
    spectral = dens.meta["spectrum"]
    energy_range = spectral["ground_energy"], spectral["max_energy"]
    drift = dens.steps[1:] * STEP_DRIFT
    worst = 0.0
    for name, (lo, hi), c in (
        ("overlap", (0.0, 1.0), 1.0),
        ("energy", energy_range, max(1.0, spectral["spectral_norm"])),
    ):
        mu = getattr(dens, f"{name}_mean")[1:]
        mean = np.mean([getattr(run, f"{name}_mean")[1:] for run in runs], axis=0)
        excess = np.maximum(0.0, np.abs(mean - mu) - drift * c)
        se = np.sqrt(np.maximum(0.0, (mu - lo) * (hi - mu)) / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(excess > 0, excess / se, 0.0)
        worst = max(worst, float(z.max()))
    return worst


def check_trajectory_density_oracle():
    worst = {name: oracle_z(*CONFIGS[name], seeds) for name, seeds in ORACLE_SEEDS.items()}
    detail = ", ".join(f"{name} {z:.2f}" for name, z in worst.items())
    return max(worst.values()) <= ORACLE_BOUND, (
        f"max z of pooled trajectory means vs density: {detail} (<= {ORACLE_BOUND:g})"
    )


def check_tfim4_continuous():
    rec = run_simulation(*CONFIGS["tfim4_continuous"])
    spectral = rec.meta["spectrum"]
    e_err = abs(rec.final_energy - spectral["ground_energy"])
    ok = rec.final_overlap >= 0.9 and e_err <= 0.1 * spectral["gap"]
    return ok, (
        f"final overlap {rec.final_overlap:.3f} (>= 0.9), "
        f"energy error {e_err:.3f} (<= {0.1 * spectral['gap']:.3f})"
    )


def check_tfim4_cost_ratio():
    # record_stride 1: h_time is read at the first step that reaches 0.9
    model, cfg = CONFIGS["tfim4_continuous"]
    cont = run_simulation(model, replace(cfg, record_stride=1))
    disc = run_simulation(*CONFIGS["tfim4_discrete"])
    hc = cont.h_time_at_overlap(0.9)
    hd = disc.h_time_at_overlap(0.9)
    if hc is None or hd is None or disc.final_overlap < 0.9:
        return False, "one of the runs failed to reach overlap 0.9"
    return hd <= hc / 5, (
        f"h_time to overlap 0.9: discrete {hd:.0f} vs continuous {hc:.0f} "
        f"(ratio {hc / hd:.1f}x, >= 5x)"
    )


def check_tfim4_nyquist():
    _, spec, a, p = _tfim_setup(4)
    k = exact_jump(spec, a, p)
    err = float(np.linalg.norm(k.matrix - quadrature_jump(spec, a, p).matrix, 2))
    # saturation: past the rule radius, doubling no longer moves the sum
    k2 = quadrature_jump(spec, a, p.with_s_radius(2 * p.s_radius))
    k4 = quadrature_jump(spec, a, p.with_s_radius(4 * p.s_radius))
    saturation = float(np.linalg.norm(k4.matrix - k2.matrix, 2))
    integral = float(np.linalg.norm(k.matrix - k2.matrix, 2))
    bound = 1e-3 * a.norm()
    ok = err <= bound and saturation <= 1e-6 and integral <= 1e-6
    return ok, (
        f"|K-K_s| {err:.1e} (<= 1e-3·|A| = {bound:.1e}), doubling change "
        f"{saturation:.1e} (<= 1e-6), |K-K_s(2S)| {integral:.1e} (<= 1e-6)"
    )


def check_global_first_order():
    h, spec, a, p = _tfim_setup()
    kq = quadrature_jump(spec, a, p)
    sys_mod = LindbladSystem(h, kq)
    rng = np.random.default_rng(11)
    rho_i = _random_density(rng, 4)
    u_g = evolution_unitary(spec, p.grid_radius)
    rho0 = DensityMatrix(u_g @ rho_i.matrix @ u_g.conj().T, check_positivity=False)
    ref = evolve_ode(sys_mod, rho0, 2.0, dt=1e-3)
    errs = []
    taus = [0.2, 0.1, 0.05, 0.025]
    for t in taus:
        cfg = ChannelConfig(tau=t, total_time=2.0, r=1, include_coherent=True, backend="density")
        kraus, _ = build_kraus_pair(spec, a, p, cfg)
        rho = rho_i.matrix
        for _ in range(cfg.n_steps):
            rho = channel_step_density(rho, kraus)
        back = u_g @ rho @ u_g.conj().T
        errs.append(trace_norm(back - ref.matrix))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    return abs(slope - 1.0) <= 0.25, f"slope {slope:.3f} (1.0 +/- 0.25) at T=2"


def check_discrete_fixed_point():
    _, spec, a, p = _tfim_setup(4)
    cfg = ChannelConfig(tau=1.0, total_time=100.0, mode="discrete", r=1, backend="density")
    kraus, _ = build_kraus_pair(spec, a, p, cfg)
    rho_g = DensityMatrix.pure(spec.ground_state)
    rho, worst = rho_g.matrix, 0.0
    for _ in range(100):
        rho = channel_step_density(rho, kraus)
        worst = max(worst, trace_norm(rho - rho_g.matrix))
    return worst <= 2e-2, f"max trace distance {worst:.2e} (<= 2e-2) at tau=1"


def check_ergodicity():
    lam = synthetic_spectrum("equispaced", 8, span=4.0)
    p = default_params(4.0, float(lam[1] - lam[0]), clamp=True)
    sig = RandomCouplingSpec.uniform(8, 0.5)
    p0 = np.full(8, 1 / 8)
    rep = ergodicity_experiment(lam, sig, p, p0, tau=0.01, t_final=3.0, reps=500, seed=3)
    t = transition_matrix(lam, p, sig)
    e0 = np.zeros(8)
    e0[0] = 1.0
    final = evolve_populations(t, p0, 50.0 / t.min_outflow_rate())
    limit = float(np.max(np.abs(final - e0)))
    ok = rep.consistent() and limit <= 1e-6
    return ok, (
        f"checkpoints outside 3 SE: {rep.n_outside_3se} (500 reps, 10 checkpoints), "
        f"long-time deviation from ground {limit:.1e} (<= 1e-6)"
    )


def check_concentration():
    lam = synthetic_spectrum("equispaced", 4, span=3.0)
    p = default_params(3.0, 1.0, clamp=True)
    sig = RandomCouplingSpec.uniform(4, 0.5)
    rep = concentration_experiment(
        lam, sig, p, np.full(4, 0.25), taus=[0.1, 0.05, 0.025, 0.0125],
        t_final=2.0, reps=200, seed=5,
    )
    return 0.4 <= rep.slope <= 0.7, f"fitted slope {rep.slope:.3f} (within [0.4, 0.7])"


def check_hubbard4_discrete():
    rec = run_simulation(*CONFIGS["hubbard4_discrete"])
    return rec.final_overlap >= 0.85, f"final overlap {rec.final_overlap:.3f} (>= 0.85)"


@dataclass(frozen=True)
class Check:
    """One registry entry.  A headline acceptance criterion carries its
    number and one-line claim; other checks leave them unset."""

    name: str
    fn: Callable[[], tuple[bool, str]]
    level: str  # "fast" or "full"
    criterion: int | None = None
    claim: str = ""


CHECKS = [
    Check("eig-reconstruction", check_eig_reconstruction, "fast"),
    Check("unitary-group-law", check_unitary_group_law, "fast"),
    Check("trace-norm-oracle", check_trace_norm_oracle, "fast"),
    Check("filter-values", check_filter_values, "fast"),
    Check("quadrature-convergence", quadrature_convergence_check, "fast"),
    Check("ground-fixed-point", check_ground_fixed_point, "fast"),
    Check("dilation-spectrum", check_dilation_spectrum, "fast"),
    Check("lemma1-slope", check_lemma1_slope, "fast", 4,
          "single-ancilla dilation error is second order in the step"),
    Check("channel-trotter-slope", check_channel_trotter_slope, "fast", 7,
          "ordered-product channel is second order per step"),
    Check("cancellation-identity", check_cancellation_identity, "fast", 6,
          "back-and-forth frame cancellation is exact"),
    Check("cptp-invariants", check_cptp_invariants, "fast", 9,
          "channel steps are CPTP and contractive on 50 random pairs"),
    Check("transition-matrix", check_transition_matrix, "fast"),
    Check("trajectory-density-consistency", check_trajectory_density_consistency, "fast"),
    Check("tfim4-continuous", check_tfim4_continuous, "full", 1,
          "TFIM-4 continuous run converges from zero overlap"),
    Check("tfim4-cost-ratio", check_tfim4_cost_ratio, "full", 2,
          "discrete stepping cuts Hamiltonian-simulation time >= 5x"),
    Check("tfim4-nyquist", check_tfim4_nyquist, "full", 5,
          "trapezoid jump operator converges (rule accuracy + saturation)"),
    Check("global-first-order", check_global_first_order, "full", 8,
          "composed scheme converges first order to the frame-shifted flow"),
    Check("discrete-fixed-point", check_discrete_fixed_point, "full", 12,
          "ground state survives 100 large discrete steps"),
    Check("ergodicity", check_ergodicity, "full", 10,
          "expected populations follow the rate equation to the unique fixed point"),
    Check("concentration", check_concentration, "full", 11,
          "single-run deviation concentrates like sqrt(step)"),
    Check("hubbard4-discrete", check_hubbard4_discrete, "full", 3,
          "Hubbard-4 discrete run reaches the ground state"),
    Check("trajectory-density-oracle", check_trajectory_density_oracle, "full"),
]


def run_verify(level: str = "fast", *, progress=None) -> tuple[bool, list[CheckResult]]:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    results = []
    for check in CHECKS:
        if level == "fast" and check.level != "fast":
            continue
        start = time.perf_counter()
        try:
            passed, detail = check.fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        res = CheckResult(check.name, bool(passed), detail, round(elapsed, 3))
        results.append(res)
        if progress is not None:
            progress(res)
    return all(r.passed for r in results), results


def report_dict(level: str, results: list[CheckResult]) -> dict:
    return {
        "level": level,
        "passed": all(r.passed for r in results),
        "n_failed": sum(not r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
