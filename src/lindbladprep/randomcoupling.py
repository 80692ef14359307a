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

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .filters import FilterParams, f_hat
from .jump import exact_jump  # noqa: F401  unused; perfbench/traced.py still wraps this name
from .linalg import HermitianOperator, LinalgError
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
        if np.any(s <= 0):
            raise ValueError("variance profile must be strictly positive")
        if np.max(np.abs(s - s.T)) > 1e-12:
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
        col_sums = np.abs(t.sum(axis=0))
        if np.max(col_sums) > 1e-12 * max(1.0, np.max(np.abs(t))):
            raise ValueError("transition matrix columns must sum to zero")
        off = t - np.diag(np.diag(t))
        if np.min(off) < 0:
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
    diagonal entries are real Gaussian with variance ``sigma_ii``.
    """
    return HermitianOperator(_draw_couplings(spec_r, [rng])[0])


def _draw_couplings(spec_r: RandomCouplingSpec, rngs: list) -> np.ndarray:
    """One coupling per generator, stacked ``(len(rngs), n, n)``.  Each draws
    ``re`` (n^2), ``im`` (n^2), then the diagonal (n) standard normals."""
    n = spec_r.dim
    z = np.stack([g.standard_normal(2 * n * n + n) for g in rngs])
    std = np.sqrt(spec_r.sigma / 2)
    re = z[:, : n * n].reshape(-1, n, n) * std
    im = z[:, n * n : 2 * n * n].reshape(-1, n, n) * std
    upper = np.triu(re + 1j * im, k=1)
    diag = z[:, 2 * n * n :] * np.sqrt(np.diag(spec_r.sigma))
    return upper + upper.conj().swapaxes(1, 2) + diag[:, :, None] * np.eye(n)


def transition_matrix(
    eigenvalues: np.ndarray, p: FilterParams, spec_r: RandomCouplingSpec
) -> TransitionMatrix:
    """Rate matrix ``T_ji = fhat(lam_j - lam_i)^2 sigma_ji`` with
    compensating diagonal.  Requires the clamped filter so upward rates
    vanish identically."""
    if not p.clamp_nonnegative:
        raise ValueError("transition matrix requires the clamped filter")
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size != spec_r.dim:
        raise ValueError("spectrum and variance profile dimension mismatch")
    omega = lam[:, None] - lam[None, :]
    rates = np.asarray(f_hat(omega, p)) ** 2 * spec_r.sigma
    np.fill_diagonal(rates, 0.0)
    t = rates - np.diag(rates.sum(axis=0))
    return TransitionMatrix(t)


def evolve_populations(t: TransitionMatrix, p0: np.ndarray, time: float) -> np.ndarray:
    """``exp(T time) p0``; the result stays a probability vector."""
    p = np.asarray(p0, dtype=float)
    if p.ndim != 1 or p.size != t.dim:
        raise ValueError("population vector dimension mismatch")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("p0 must be a probability vector")
    if time < 0:
        raise ValueError("time must be nonnegative")
    out = scipy.linalg.expm(t.matrix * time) @ p
    if np.min(out) < -1e-9 or abs(out.sum() - 1.0) > 1e-9:
        raise ValueError("population evolution left the simplex")
    return out


def synthetic_spectrum(kind: str, n: int, *, seed: int = 0, span: float = 4.0) -> np.ndarray:
    """Test spectra decoupled from any physical model.

    ``equispaced``: uniform ladder on [0, span].  ``clustered``: two tight
    bands separated by the span.  ``random``: sorted uniform draws with a
    unit gap enforced below the bulk.
    """
    if n < 2:
        raise ValueError("need at least two levels")
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


def _resampled_evolution(
    lam: np.ndarray, spec_r: RandomCouplingSpec, p: FilterParams, p0: np.ndarray, tau: float,
    t_final: float, rngs: list, include_coherent: bool, record: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve ``diag(p0)`` once per generator: every ``tau``, draw a coupling
    ``A`` and take one RK4 step of the master equation with ``H = diag(lam)``
    and ``K = F o A``, ``F_ij = fhat(lam_i - lam_j)`` (no eigenbasis needed).
    Each step is re-Hermitized, fails on a per-rep trace drift beyond 1e-6 or
    NaN, and is renormalized.  Returns ``record`` evenly spaced checkpoint
    steps (None: the last step only) and the states there, ``(rep, step, n, n)``.
    """
    n_steps = int(round(t_final / tau))
    if abs(n_steps * tau - t_final) > 1e-9:
        raise ValueError("t_final must be a multiple of tau")
    steps = np.array([n_steps]) if record is None else np.unique(
        np.linspace(1, n_steps, record).round().astype(int)
    )
    f = f_hat(lam[:, None] - lam[None, :], p)
    rho = np.repeat(np.diag(p0.astype(complex))[None], len(rngs), axis=0)
    kept = []

    def generator(x):
        y = k @ x @ kh - 0.5 * (kdk @ x + x @ kdk)
        return y - 1j * (lam[:, None] * x - x * lam) if include_coherent else y

    for step in range(1, n_steps + 1):
        k = f * _draw_couplings(spec_r, rngs)
        kh = k.conj().swapaxes(1, 2)
        kdk = kh @ k
        k1 = generator(rho)
        k2 = generator(rho + 0.5 * tau * k1)
        k3 = generator(rho + 0.5 * tau * k2)
        k4 = generator(rho + tau * k3)
        rho = rho + (tau / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = (rho + rho.conj().swapaxes(1, 2)) / 2
        tr = np.trace(rho, axis1=1, axis2=2).real
        bad = np.flatnonzero(~(np.abs(tr - 1.0) <= 1e-6))
        if bad.size:
            raise LinalgError(f"trace of rep {bad[0]} drifted to {tr[bad[0]]}; decrease tau")
        rho /= tr[:, None, None]
        if step in steps:
            kept.append(rho)
    return steps, np.stack(kept, axis=1)


@dataclass
class ErgodicityReport:
    checkpoints: np.ndarray  # times
    mc_mean: np.ndarray  # (n_checkpoints, dim)
    mc_se: np.ndarray
    ode: np.ndarray
    max_abs_deviation: float
    n_outside_3se: int
    se_floor: float = 0.0

    def consistent(self) -> bool:
        return self.n_outside_3se == 0

    def write_csv(self, path) -> None:
        """Population comparison, one row per (checkpoint, level)."""
        with _open_csv(path) as writer:
            writer.writerow(["time", "level", "mc_mean", "mc_se", "rate_equation"])
            for i, t in enumerate(self.checkpoints):
                for level in range(self.mc_mean.shape[1]):
                    writer.writerow(
                        [
                            repr(float(t)),
                            level,
                            repr(float(self.mc_mean[i, level])),
                            repr(float(self.mc_se[i, level])),
                            repr(float(self.ode[i, level])),
                        ]
                    )

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
    n_checkpoints: int = 10,
    include_coherent: bool = True,
) -> ErgodicityReport:
    """Monte Carlo mean populations vs the rate-equation prediction.

    Each rep evolves a diagonal initial state, redrawing the coupling every
    ``tau`` and integrating the master equation across the interval (one
    RK4 step; the local error is far below the sampling noise).  Per-rep
    RNG streams derive from (seed, rep), so a rep's path does not depend on
    ``reps``.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if not p.clamp_nonnegative:
        raise ValueError("ergodicity experiment expects the clamped filter")
    p0 = np.asarray(p0, dtype=float)
    rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, rep])) for rep in range(reps)
    ]
    check_steps, states = _resampled_evolution(
        lam, spec_r, p, p0, tau, t_final, rngs, include_coherent, n_checkpoints
    )
    diag_samples = np.diagonal(states, axis1=2, axis2=3).real  # (rep, checkpoint, level)
    mc_mean = diag_samples.mean(axis=0)
    mc_se = diag_samples.std(axis=0, ddof=1) / np.sqrt(reps)
    tmat = transition_matrix(lam, p, spec_r)
    ode = np.stack([evolve_populations(tmat, p0, s * tau) for s in check_steps])
    dev = np.abs(mc_mean - ode)
    # the finite resampling interval leaves an O(tau) deterministic bias
    # that survives even when the MC variance collapses; the floor keeps
    # the 3-SE comparison meaningful there
    se_floor = 5e-3
    outside = int(np.sum(dev > np.maximum(3 * mc_se, se_floor)))
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

    def write_csv(self, path) -> None:
        """Tail mass vs time, one column per layer."""
        n_layers = self.tail_mass.shape[0]
        with _open_csv(path) as writer:
            writer.writerow(["time"] + [f"tail_mass_layer_{l + 1}" for l in range(n_layers)])
            for i, t in enumerate(self.times):
                writer.writerow(
                    [repr(float(t))] + [repr(float(self.tail_mass[l, i])) for l in range(n_layers)]
                )

    def summary(self) -> dict:
        return {
            "thresholds": self.thresholds,
            "min_weight_out_rates": self.rates,
            "violated_layers": self.violated_layers,
            "crossing_times": self.crossing_times,
            "tail_monotone": self.tail_monotone,
        }


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

    ``thresholds`` is the decreasing index sequence R_1 > R_2 > ...; layer
    ``l`` requires every source level j in (R_{l+1}, R_l] to feed the band
    {0..R_{l+1}} at a positive total rate.  The report records those rates,
    flags layers below ``rate_floor``, integrates the populations from a
    uniform start, and returns the first time each layer's tail mass
    ``sum_{i > R_{l+1}} p_i`` drops below the schedule ``1/2 - 1/(l+3)``.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.size
    if sorted(thresholds, reverse=True) != list(thresholds):
        raise ValueError("thresholds must be strictly decreasing")
    if thresholds[0] != n - 1:
        raise ValueError("first threshold must be N - 1")
    tmat = transition_matrix(lam, p, spec_r)
    rates_sq = np.asarray(f_hat(lam[:, None] - lam[None, :], p)) ** 2 * spec_r.sigma
    layer_rates, violated = [], []
    for l in range(len(thresholds) - 1):
        r_hi, r_lo = thresholds[l], thresholds[l + 1]
        sources = range(r_lo + 1, r_hi + 1)
        rate = min(float(rates_sq[: r_lo + 1, j].sum()) for j in sources)
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

    def write_csv(self, path) -> None:
        """Deviation vs resampling step."""
        with _open_csv(path) as writer:
            writer.writerow(["tau", "deviation", "deviation_se"])
            for t, d, s in zip(self.taus, self.deviations, self.deviation_se):
                writer.writerow([repr(float(t)), repr(float(d)), repr(float(s))])

    def summary(self) -> dict:
        return {
            "slope": self.slope,
            "taus": [float(t) for t in self.taus],
            "deviations": [float(d) for d in self.deviations],
        }


def write_summary_json(path, **named_reports) -> None:
    """Combined JSON summary (fitted slopes, consistency flags) of any mix
    of experiment reports."""
    out = {name: rep.summary() for name, rep in named_reports.items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


class _open_csv:
    def __init__(self, path):
        self.path = Path(path)

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fh = open(self.path, "w", newline="")
        return csv.writer(self.fh)

    def __exit__(self, *exc):
        self.fh.close()
        return False


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
    include_coherent: bool = True,
) -> ConcentrationReport:
    """Single-run deviation from the expected dynamics vs resampling step.

    For each ``tau`` the experiment averages ``E || rho_M - E(rho(T)) ||_F``
    over ``reps`` stochastic runs and fits a log-log slope; the sampling
    term scales like sqrt(tau), so the fitted slope should sit near 1/2.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    tmat = transition_matrix(lam, p, spec_r)
    target = np.diag(evolve_populations(tmat, p0, t_final)).astype(complex)
    devs, ses = [], []
    for tau_idx, tau in enumerate(taus):
        seqs = (np.random.SeedSequence([seed, tau_idx, rep]) for rep in range(reps))
        rngs = [np.random.default_rng(q) for q in seqs]
        _, states = _resampled_evolution(
            lam, spec_r, p, p0, tau, t_final, rngs, include_coherent, None
        )
        samples = np.array([np.linalg.norm(rho - target) for rho in states[:, -1]])
        devs.append(samples.mean())
        ses.append(samples.std(ddof=1) / np.sqrt(reps))
    devs = np.asarray(devs)
    if len(taus) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(taus)), np.log(devs), 1)[0])
    else:
        slope = float("nan")
    return ConcentrationReport(
        taus=np.asarray(taus), deviations=devs, deviation_se=np.asarray(ses), slope=slope
    )
