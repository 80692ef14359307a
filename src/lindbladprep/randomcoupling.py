"""Population-level theory of randomly drawn couplings, run as experiments.

When the coupling matrix is redrawn independently over time with
``E A_ij = 0`` and ``E |A_ij|^2 = sigma_ij``, the expected state stays
diagonal in the energy basis and its populations follow a classical master
equation ``dp/dt = T p`` with rates ``T_ji = fhat(lam_j - lam_i)^2
sigma_ji`` (j != i) and column sums zero.  With the clamped filter the
rate matrix is strictly upper triangular in ascending energy order, so
probability only flows downhill and the ground population absorbs.

The experiments here sample that picture at finite step size and finite
rep count: ``ergodicity_experiment`` compares Monte Carlo mean populations
against ``exp(T t) p0``; ``mixing_layers_experiment`` tracks layered tail
masses against threshold schedules; ``concentration_experiment`` measures
how far one stochastic run strays from the deterministic expectation as
the resampling interval shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filters import FilterParams, f_hat
from .jump import exact_jump  # noqa: F401  unused; perfbench/traced.py still wraps this name
from .linalg import STEP_DRIFT, HermitianOperator, LinalgError, mean_se
from .plotting import write_csv, write_json
from .reference import evolve_ode  # noqa: F401  unused; as exact_jump

__all__ = [
    "RandomCouplingSpec",
    "TransitionMatrix",
    "sample_coupling",
    "transition_matrix",
    "evolve_populations",
    "synthetic_spectrum",
    "ergodicity_experiment",
    "mixing_layers_experiment",
    "concentration_experiment",
]


@dataclass(frozen=True)
class RandomCouplingSpec:
    """Variance profile of the coupling ensemble in the energy basis."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("variance profile must be a square matrix")
        if not np.all(np.isfinite(s) & (s > 0)):
            raise ValueError("variance profile must be finite and strictly positive")
        if not np.max(np.abs(s - s.T)) <= 1e-12:
            raise ValueError("variance profile must be symmetric")
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @classmethod
    def uniform(cls, dim: int, value: float = 1.0) -> "RandomCouplingSpec":
        return cls(np.full((dim, dim), value))


@dataclass(frozen=True)
class TransitionMatrix:
    """Population-rate generator in ascending energy order."""

    matrix: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.matrix, dtype=float)
        bad = t[~np.isfinite(t)]
        if bad.size:
            raise ValueError(f"transition matrix entries must be finite, got {bad[0]}")
        col_sums = np.abs(t.sum(axis=0))
        if not np.max(col_sums) <= 1e-12 * max(1.0, np.max(np.abs(t))):
            raise ValueError("transition matrix columns must sum to zero")
        off = t - np.diag(np.diag(t))
        if not np.min(off) >= 0:
            raise ValueError("off-diagonal rates must be nonnegative")
        t.setflags(write=False)
        object.__setattr__(self, "matrix", t)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def min_outflow_rate(self) -> float:
        """Smallest nonzero total outflow -sum over the diagonal entries."""
        diag = -np.diag(self.matrix)
        nonzero = diag[diag > 0]
        return float(nonzero.min()) if nonzero.size else 0.0


def sample_coupling(
    spec_r: RandomCouplingSpec, rng: np.random.Generator
) -> HermitianOperator:
    """Draw one Hermitian coupling in the energy basis.

    Off-diagonal entries are complex Gaussian with ``E |A_ij|^2 =
    sigma_ij`` (independent real/imag parts of variance ``sigma_ij / 2``);
    diagonal entries are real Gaussian with variance ``sigma_ii``.  One
    draw takes exactly ``n^2`` normals from ``rng``, laid out as
    :func:`_coupling_gather` reads them.
    """
    n = spec_r.dim
    src, scale = _coupling_gather(spec_r, np.ones((n, n)))
    a = np.empty((n, n), dtype=complex)
    np.multiply(rng.standard_normal(n * n)[src], scale, out=a.view(float))
    return HermitianOperator(a)


def _coupling_gather(spec_r: RandomCouplingSpec, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(src, scale)`` such that ``z[src] * scale`` is ``F o A`` read as
    floats, for a row ``z`` of ``n^2`` standard normals: entries ``(i, 2j)``
    and ``(i, 2j + 1)`` of the ``(n, 2n)`` result are the real and imaginary
    parts of ``(F o A)_ij``.

    With the ``m = n(n - 1)/2`` entries above the diagonal numbered in
    row-major order, the row holds ``re`` (m), ``im`` (m), then the diagonal
    ``d`` (n): ``A_ij = sqrt(sigma_ij / 2) (re_k + i im_k)`` for the k-th
    entry ``i < j``, ``A_ji = conj(A_ij)`` and ``A_ii = sqrt(sigma_ii) d_i``,
    so every normal is used once.  ``F = 1`` gives the coupling ``A`` itself.
    """
    n = spec_r.dim
    m = n * (n - 1) // 2
    upper = np.zeros((n, n), dtype=int)  # k of the entry above the diagonal, mirrored below
    upper[np.triu_indices(n, 1)] = np.arange(m)
    upper += upper.T
    i, j = np.indices((n, n))
    src = np.stack([upper, m + upper], axis=-1)
    std = f * np.sqrt(spec_r.sigma / 2)
    scale = np.stack([std, np.sign(j - i) * std], axis=-1)  # Im A_ii is 0
    d = np.arange(n)
    src[d, d] = 2 * m + d[:, None]
    scale[d, d, 0] = np.diag(f) * np.sqrt(np.diag(spec_r.sigma))
    return src.reshape(n, 2 * n), scale.reshape(n, 2 * n)


def transition_matrix(
    eigenvalues: np.ndarray, p: FilterParams, spec_r: RandomCouplingSpec
) -> TransitionMatrix:
    """Rate matrix ``T_ji = fhat(lam_j - lam_i)^2 sigma_ji`` with
    compensating diagonal.  Requires the clamped filter so upward rates
    vanish identically."""
    if not p.clamp_nonnegative:
        raise ValueError("transition matrix requires the clamped filter")
    lam = np.asarray(eigenvalues, dtype=float)
    if not np.isfinite(lam).all():
        raise ValueError(f"eigenvalues must be finite, got {lam.tolist()}")
    if lam.size != spec_r.dim:
        raise ValueError("spectrum and variance profile dimension mismatch")
    omega = lam[:, None] - lam[None, :]
    rates = np.asarray(f_hat(omega, p)) ** 2 * spec_r.sigma
    np.fill_diagonal(rates, 0.0)
    t = rates - np.diag(rates.sum(axis=0))
    return TransitionMatrix(t)


def evolve_populations(t: TransitionMatrix, p0: np.ndarray, time: float) -> np.ndarray:
    """``exp(T time) p0``; the result stays a probability vector.  The
    exponential is :func:`_expm`, checked against ``scipy.linalg.expm``.
    ``time`` must be finite and nonnegative, with ``|T time|_1 < 2^1023``
    so that the scaling of :func:`_expm` cannot overflow, or ValueError."""
    p = _probability_vector(p0, t.dim)
    time = float(time)
    scaled = np.linalg.norm(t.matrix, 1).item() * time  # a Python float overflows to inf silently
    if not (time >= 0 and scaled < 2.0**1023):  # NaN and inf fail too
        raise ValueError(f"time must be finite and nonnegative with |T time|_1 < 2^1023, got {time}")
    out = _expm(t.matrix * time) @ p
    if not (np.min(out) >= -1e-9 and abs(out.sum() - 1.0) <= 1e-9):
        raise ValueError("population evolution left the simplex")
    return out


def _probability_vector(p0: np.ndarray, dim: int) -> np.ndarray:
    """``p0`` as a float array, or ValueError unless it is a probability
    vector over ``dim`` levels."""
    p = np.asarray(p0, dtype=float)
    if p.ndim != 1 or p.size != dim:
        raise ValueError("population vector dimension mismatch")
    if not (np.all(p >= -1e-12) and abs(p.sum() - 1.0) <= 1e-9):  # NaN fails too
        raise ValueError(f"p0 must be a probability vector, got {p.tolist()}")
    return p


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small matrix by scaling and squaring.

    ``x = m / 2^s`` with the smallest ``s >= 0`` that makes ``|x|_1 < 1``.
    The Taylor polynomial of ``exp(x)`` of degree 18, the smallest whose
    truncation bound (about ``|x| / 19!``) lies below the double unit
    roundoff times ``|x|``, is evaluated by Horner's rule and squared ``s``
    times (Moler and Van Loan, SIAM Review 45, 2003).  For a rate matrix,
    ``1^T x = 0`` keeps every column sum of each Horner stage at 1; since
    Horner's rule adds the small high-order terms together before the
    identity, those sums carry little rounding for the squarings to grow.
    """
    s = max(0, math.frexp(np.linalg.norm(m, 1))[1])
    x = m / 2.0**s
    eye = np.eye(m.shape[0])
    out = eye
    for k in range(18, 0, -1):
        out = eye + x @ out / k
    for _ in range(s):
        out = out @ out
    return out


def synthetic_spectrum(kind: str, n: int, *, seed: int = 0, span: float = 4.0) -> np.ndarray:
    """Test spectra decoupled from any physical model.

    ``equispaced``: uniform ladder on [0, span].  ``clustered``: two tight
    bands separated by the span.  ``random``: sorted uniform draws with a
    unit gap enforced below the bulk.  ``span`` must be finite and positive,
    and above 1 for ``random``, or ValueError.
    """
    if n < 2:
        raise ValueError("need at least two levels")
    low = 1.0 if kind == "random" else 0.0  # the random bulk is drawn from [1, span)
    if not (math.isfinite(span) and span > low):
        raise ValueError(f"span must be finite and greater than {low:g} for kind {kind!r}, got {span}")
    if kind == "equispaced":
        return np.linspace(0.0, span, n)
    if kind == "clustered":
        half = n // 2
        low = np.linspace(0.0, 0.2 * span, half)
        high = np.linspace(0.8 * span, span, n - half)
        return np.concatenate([low, high])
    if kind == "random":
        rng = np.random.default_rng(seed)
        bulk = np.sort(rng.uniform(1.0, span, size=n - 1))
        return np.concatenate([[0.0], bulk])
    raise ValueError(f"unknown spectrum kind {kind!r}")


# The sampler draws this many bytes at a time, for all its streams together
# (at least one step).  A generator's draw of c rows holds the same numbers
# as c draws of one row, so no result depends on this size.
_DRAW_CHUNK_BYTES = 256 * 1024


def step_draws(rngs: list, n_steps: int, width: int):
    """Yield ``n_steps`` arrays of shape ``(len(rngs), width)``, one per step,
    whose row ``i`` holds the next ``width`` standard normals of ``rngs[i]``,
    drawn in chunks of :data:`_DRAW_CHUNK_BYTES`."""
    chunk = max(1, _DRAW_CHUNK_BYTES // (8 * width * len(rngs)))
    for start in range(0, n_steps, chunk):
        size = (min(chunk, n_steps - start), width)
        yield from np.stack([g.standard_normal(size) for g in rngs], axis=1)


def _step_count(tau: float, t_final: float) -> int:
    """The number of ``tau`` steps that make ``t_final``; ValueError unless
    both are finite and positive, the count fits 64 bits and ``t_final`` is a
    positive multiple of ``tau``."""
    for name, value in (("tau", tau), ("t_final", t_final)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    steps = t_final / tau
    if not steps < 2**63:
        raise ValueError(f"t_final / tau = {steps:.3g} steps does not fit a 64-bit count")
    n_steps = int(round(steps))
    if n_steps < 1 or abs(n_steps * tau - t_final) > 1e-9:
        raise ValueError("t_final must be a positive multiple of tau")
    return n_steps


def _resampled_evolution(
    lam: np.ndarray, spec_r: RandomCouplingSpec, p: FilterParams, p0: np.ndarray, tau: float,
    t_final: float, rngs: list, record: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve ``diag(p0)`` once per generator: every ``tau``, draw a coupling
    ``A`` and take one RK4 step of the master equation with ``H = diag(lam)``
    and ``K = F o A``, ``F_ij = fhat(lam_i - lam_j)`` (no eigenbasis needed).
    The generator ``L x = K x K^dag - (K^dag K x + x K^dag K)/2 - i[H, x]`` is
    applied as ``K x K^dag + J x + (J x)^dag`` with ``J = -K^dag K/2 - iH``,
    since every stage input is Hermitian; ``K x`` and ``J x`` come from one
    product with the stacked ``[K; J]``.  With ``K`` and ``J`` fixed across
    the step, the classical RK4 step is ``T4(tau L) rho``, evaluated by
    Horner's rule as ``rho + tau L(rho + tau/2 L(rho + tau/3 L(rho + tau/4 L
    rho)))``.  A step fails if it moves a rep's trace by more than
    ``linalg.STEP_DRIFT`` or to NaN; else it is re-Hermitized and
    renormalized in one pass.  Each step takes the next ``n^2`` normals of
    every generator, so its first coupling is the one :func:`sample_coupling`
    draws from an identically seeded generator; a generator draws its normals
    for a chunk of steps at a time (:func:`step_draws`), and the couplings are
    built one step at a time.  ``tau`` and ``t_final`` are checked by
    :func:`_step_count` before any draw.  Returns ``record`` evenly spaced
    checkpoint steps (None: the last step only) and the states there,
    ``(rep, step, n, n)``.
    """
    n_steps = _step_count(tau, t_final)
    steps = np.array([n_steps]) if record is None else np.linspace(1, n_steps, record).round()
    steps = steps[np.diff(steps, prepend=0) > 0].astype(int)  # np.unique would import numpy.ma
    n, reps = lam.size, len(rngs)
    src, scale = _coupling_gather(spec_r, f_hat(lam[:, None] - lam[None, :], p))
    coherent = -1j * np.diag(lam)
    kj = np.empty((reps, 2 * n, n), dtype=complex)  # [K; J] of the current step
    k, j = kj[:, :n], kj[:, n:]
    k_floats = kj.view(float)[:, :n]
    rho = np.repeat(np.diag(p0.astype(complex))[None], reps, axis=0)
    kept = []
    draws = step_draws(rngs, n_steps, n * n)
    for step, z in enumerate(draws, start=1):  # z: (rep, normal)
        np.multiply(z[:, src], scale, out=k_floats)
        kh = k.conj().swapaxes(1, 2)
        np.matmul(kh, k, out=j)
        j *= -0.5
        j += coherent
        x = rho
        for order in (4, 3, 2, 1):
            kx_jx = kj @ x
            jx = kx_jx[:, n:]
            x = kx_jx[:, :n] @ kh
            x += jx
            x += jx.conj().swapaxes(1, 2)
            x *= tau / order
            x += rho
        # Re tr x is also the trace of the Hermitian part of x
        tr = np.trace(x, axis1=1, axis2=2).real
        drift = np.abs(tr - 1.0)
        if not drift.max() <= STEP_DRIFT:  # NaN fails too
            bad = np.flatnonzero(~(drift <= STEP_DRIFT))[0]
            raise LinalgError(f"trace of rep {bad} drifted to {tr[bad]}; decrease tau")
        x += x.conj().swapaxes(1, 2)
        x *= (0.5 / tr)[:, None, None]
        rho = x
        if step == steps[len(kept)]:
            kept.append(rho)
    return steps, np.stack(kept, axis=1)


N_CHECKPOINTS = 10  # evenly spaced steps at which an ergodicity run compares populations


@dataclass
class ErgodicityReport:
    checkpoints: np.ndarray  # times
    mc_mean: np.ndarray  # (N_CHECKPOINTS, dim)
    mc_se: np.ndarray
    ode: np.ndarray
    max_abs_deviation: float
    n_outside_3se: int
    se_floor: float = 0.0

    def consistent(self) -> bool:
        return self.n_outside_3se == 0

    def write_csv(self, path) -> None:
        """Population comparison, one row per (checkpoint, level)."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        columns = zip(self.mc_mean.tolist(), self.mc_se.tolist(), self.ode.tolist())
        rows = (
            (t, level, *values)
            for t, per_level in zip(self.checkpoints.tolist(), columns)
            for level, values in enumerate(zip(*per_level))
        )
        write_csv(path, ["time", "level", "mc_mean", "mc_se", "rate_equation"], rows)

    def summary(self) -> dict:
        return {
            "max_abs_deviation": self.max_abs_deviation,
            "n_outside_3se": self.n_outside_3se,
            "se_floor": self.se_floor,
            "consistent": self.consistent(),
        }


def ergodicity_experiment(
    eigenvalues: np.ndarray,
    spec_r: RandomCouplingSpec,
    p: FilterParams,
    p0: np.ndarray,
    *,
    tau: float,
    t_final: float,
    reps: int,
    seed: int = 0,
) -> ErgodicityReport:
    """Monte Carlo mean populations vs the rate-equation prediction.

    Each rep evolves a diagonal initial state, redrawing the coupling every
    ``tau`` and integrating the master equation across the interval (one
    RK4 step; the local error is far below the sampling noise).  The mean
    populations are compared at :data:`N_CHECKPOINTS` (10) evenly spaced
    steps, the last of them at ``t_final``.  Per-rep RNG streams derive
    from (seed, rep), so a rep's path does not depend on ``reps``, which
    must be at least 2 for a standard error.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2 (the standard error needs two samples)")
    lam = np.asarray(eigenvalues, dtype=float)
    # both checked before the first step, with the messages of the rate equation
    tmat = transition_matrix(lam, p, spec_r)
    p0 = _probability_vector(p0, lam.size)
    rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, rep])) for rep in range(reps)
    ]
    check_steps, states = _resampled_evolution(
        lam, spec_r, p, p0, tau, t_final, rngs, N_CHECKPOINTS
    )
    diag_samples = np.diagonal(states, axis1=2, axis2=3).real  # (rep, checkpoint, level)
    mc_mean, mc_se = mean_se(diag_samples, 0)
    ode = np.stack([evolve_populations(tmat, p0, s * tau) for s in check_steps])
    dev = np.abs(mc_mean - ode)
    # the finite resampling interval leaves an O(tau) deterministic bias
    # that survives even when the MC variance collapses; the floor keeps
    # the 3-SE comparison meaningful there
    se_floor = 5e-3
    outside = int(np.sum(~(dev <= np.maximum(3 * mc_se, se_floor))))  # NaN counts
    return ErgodicityReport(
        checkpoints=check_steps * tau,
        mc_mean=mc_mean,
        mc_se=mc_se,
        ode=ode,
        max_abs_deviation=float(dev.max()),
        n_outside_3se=outside,
        se_floor=se_floor,
    )


@dataclass
class MixingLayersReport:
    thresholds: list
    rates: list  # min weight-out rate per layer
    violated_layers: list  # layers whose rate fell below the floor
    crossing_times: list  # first time each layer's tail mass meets its schedule
    tail_monotone: bool
    times: np.ndarray
    tail_mass: np.ndarray  # (n_layers, n_times)


def mixing_layers_experiment(
    eigenvalues: np.ndarray,
    spec_r: RandomCouplingSpec,
    p: FilterParams,
    thresholds: list[int],
    *,
    t_max: float = 50.0,
    n_times: int = 400,
    rate_floor: float = 1e-12,
    p0: np.ndarray | None = None,
) -> MixingLayersReport:
    """Layered-mixing study on one spectrum.

    ``thresholds`` is the integer sequence N - 1 = R_1 > R_2 > ... >= 0,
    with at least two entries, or ValueError; layer
    ``l`` requires every source level j in (R_{l+1}, R_l] to feed the band
    {0..R_{l+1}} at a positive total rate.  The report records those rates,
    flags layers below ``rate_floor``, integrates the populations from a
    uniform start, and returns the first time each layer's tail mass
    ``sum_{i > R_{l+1}} p_i`` drops below the schedule ``1/2 - 1/(l+3)``,
    on ``n_times`` evenly spaced times from 0 to ``t_max``.  ``t_max`` must be
    finite and positive and ``n_times`` an integer >= 1, or ValueError
    before any work.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.size
    th = list(thresholds)
    integers = all(isinstance(r, (int, np.integer)) and not isinstance(r, bool) for r in th)
    if not (len(th) >= 2 and integers and th[0] == n - 1 and th[-1] >= 0
            and all(hi > lo for hi, lo in zip(th, th[1:]))):
        raise ValueError(
            f"thresholds must be two or more integers, strictly decreasing from N - 1 = {n - 1}"
            f" to at least 0; got {th}"
        )
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    if not (isinstance(n_times, (int, np.integer)) and not isinstance(n_times, bool) and n_times >= 1):
        raise ValueError(f"n_times must be an integer >= 1, got {n_times!r}")
    tmat = transition_matrix(lam, p, spec_r)
    layer_rates, violated = [], []
    for l in range(len(thresholds) - 1):
        r_hi, r_lo = thresholds[l], thresholds[l + 1]
        sources = range(r_lo + 1, r_hi + 1)
        # rows 0..r_lo of a source column j > r_lo hold off-diagonal rates only
        rate = min(float(tmat.matrix[: r_lo + 1, j].sum()) for j in sources)
        layer_rates.append(rate)
        if rate < rate_floor:
            violated.append(l + 1)
    if p0 is None:
        p0 = np.full(n, 1.0 / n)
    times = np.linspace(0.0, t_max, n_times)
    pops = np.stack([evolve_populations(tmat, p0, t) for t in times])
    tails = np.stack(
        [pops[:, thresholds[l + 1] + 1 :].sum(axis=1) for l in range(len(thresholds) - 1)]
    )
    crossing = []
    for l in range(len(thresholds) - 1):
        target = 0.5 - 1.0 / (l + 1 + 3)
        below = np.nonzero(tails[l] < target)[0]
        crossing.append(float(times[below[0]]) if below.size else None)
    monotone = bool(np.all(np.diff(tails, axis=1) <= 1e-12))
    return MixingLayersReport(
        thresholds=list(thresholds),
        rates=layer_rates,
        violated_layers=violated,
        crossing_times=crossing,
        tail_monotone=monotone,
        times=times,
        tail_mass=tails,
    )


@dataclass
class ConcentrationReport:
    taus: np.ndarray
    deviations: np.ndarray  # mean Frobenius deviation per tau
    deviation_se: np.ndarray
    slope: float


def write_summary_json(path, **named_reports) -> None:
    """Combined JSON summary of named reports, each with a ``summary()``
    (such as the consistency flags of an :class:`ErgodicityReport`)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_json(path, {name: rep.summary() for name, rep in named_reports.items()})


def concentration_experiment(
    eigenvalues: np.ndarray,
    spec_r: RandomCouplingSpec,
    p: FilterParams,
    p0: np.ndarray,
    *,
    taus: list[float],
    t_final: float,
    reps: int,
    seed: int = 0,
) -> ConcentrationReport:
    """Single-run deviation from the expected dynamics vs resampling step.

    For each ``tau`` the experiment averages ``E || rho_M - E(rho(T)) ||_F``
    over ``reps`` stochastic runs and fits a log-log slope; the sampling
    term scales like sqrt(tau), so the fitted slope should sit near 1/2.
    ``reps`` must be at least 2 for a standard error.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2 (the standard error needs two samples)")
    lam = np.asarray(eigenvalues, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    tmat = transition_matrix(lam, p, spec_r)
    for tau in taus:  # every tau is checked before the first draw
        _step_count(tau, t_final)
    target = np.diag(evolve_populations(tmat, p0, t_final)).astype(complex)
    devs, ses = [], []
    for tau_idx, tau in enumerate(taus):
        seqs = (np.random.SeedSequence([seed, tau_idx, rep]) for rep in range(reps))
        rngs = [np.random.default_rng(q) for q in seqs]
        _, states = _resampled_evolution(lam, spec_r, p, p0, tau, t_final, rngs, None)
        mean, se = mean_se(np.array([np.linalg.norm(rho - target) for rho in states[:, -1]]), 0)
        devs.append(mean)
        ses.append(se)
    devs = np.asarray(devs)
    if len(taus) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(taus)), np.log(devs), 1)[0])
    else:
        slope = float("nan")
    return ConcentrationReport(
        taus=np.asarray(taus), deviations=devs, deviation_se=np.asarray(ses), slope=slope
    )
