"""Circuit-level simulation of the single-ancilla dissipative scheme.

One evolution step applies the 2N x 2N unitary ``W`` (``r`` times) to
``|0> x psi``, discards/measures the ancilla, and optionally finishes with
the coherent conjugation ``e^{-iH tau}``.  ``W`` is the symmetric
(second-order) ordered product over the time-quadrature grid,

    W = [prod_{l=-M..M} Atilde_l (I x e^{+iH tau_s})]
        [prod_{l=M..-M} (I x e^{-iH tau_s}) Atilde_l],

where ``Atilde_l = exp(-i (x/2) sigma_l x A)`` with
``sigma_l = w_l (sigma_x Re f(s_l) + sigma_y Im f(s_l))`` and ``x`` the
unitary time argument.  The back-and-forth Heisenberg frames cancel
telescopically, which is why only short ``tau_s`` evolutions remain; the
leftover frame factors ``I x e^{-/+ i H (M tau_s)}`` cancel between
consecutive steps and are dropped.

Since the ancilla always starts in ``|0>``, a step only uses the block
column ``<b| W^r |0>`` (b = 0, 1): the Kraus pair ``(M0, M1)``, with
``e^{-iH tau}`` folded in.  :func:`build_kraus_pair` streams the factors
onto that 2N x N block in the eigenbasis of ``A``, where every ``Atilde_l``
is 2 x 2-block diagonal (O(N^2) work) and every frame hop is one GEMM, so
neither ``W`` nor its factors are ever formed.  :func:`build_w` runs the
same loop on the 2N x 2N identity and, with :func:`build_w_naive`, serves
as the oracle.

Cost accounting: every ``Atilde_l`` counts as one controlled-A gate and
every ``e^{+/- i H t}`` factor contributes ``|t|`` of Hamiltonian
simulation time, so one step costs ``r * 2 * (2M + 1)`` gates and
``r * 2 * (2M + 1) * tau_s`` (+ ``tau`` when coherent) of time.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .filters import FilterParams, f_time, quadrature_grid
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    evolution_unitary,
    hermitian_eig,
    max_abs,
)
from .models import ModelSpec, coupling_operator

__all__ = [
    "ChannelConfig",
    "CostLedger",
    "SimulationRecord",
    "ChannelError",
    "build_kraus_pair",
    "build_w",
    "build_w_naive",
    "isometry_defect",
    "step_cost",
    "channel_step_density",
    "trajectory_step",
    "run_simulation",
]

_EIGENSTATE = re.compile(r"eigenstate:([0-9]+)")


class ChannelError(RuntimeError):
    pass


@dataclass(frozen=True)
class ChannelConfig:
    """Stepping scheme for one run.

    ``mode`` is documentation of the regime: ``continuous`` means a small
    step with ``r = 1``; ``discrete`` allows a large step refined by ``r``
    unitary segments ``W(sqrt(tau)/r)`` per step.  ``total_time / tau``
    must be an integer step count.
    """

    tau: float
    total_time: float
    mode: str = "continuous"
    r: int = 1
    include_coherent: bool = True
    backend: str = "trajectory"
    reps: int = 1
    seed: int = 0
    initial_state: str = "highest_excited"
    record_stride: int = 1

    def __post_init__(self):
        if self.mode not in ("continuous", "discrete"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.backend not in ("trajectory", "density"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.tau <= 0 or self.total_time <= 0:
            raise ValueError("tau and total_time must be positive")
        if self.r < 1:
            raise ValueError("segment count r must be >= 1")
        steps = self.total_time / self.tau
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("total_time must be an integer multiple of tau")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not isinstance(self.initial_state, str) or not (
            self.initial_state in ("highest_excited", "ground")
            or _EIGENSTATE.fullmatch(self.initial_state)
        ):
            raise ValueError(
                f"unknown initial_state {self.initial_state!r} (expected 'highest_excited', "
                "'ground' or 'eigenstate:<index>')"
            )

    @property
    def eigenstate_index(self) -> int | None:
        """The index ``k`` of ``initial_state = "eigenstate:k"``, else None."""
        match = _EIGENSTATE.fullmatch(self.initial_state)
        return int(match[1]) if match else None

    @property
    def n_steps(self) -> int:
        return int(round(self.total_time / self.tau))

    @property
    def tau_eff(self) -> float:
        """Squared unitary argument of one segment: (sqrt(tau)/r)^2."""
        return self.tau / self.r**2


@dataclass
class CostLedger:
    """Circuit cost: Hamiltonian-simulation time and controlled-A gate count."""

    hamiltonian_time: float = 0.0
    controlled_a_count: int = 0


def step_cost(p: FilterParams, cfg: ChannelConfig) -> CostLedger:
    """Analytic cost of one evolution step."""
    factors = 2 * (2 * p.m_half + 1)
    return CostLedger(
        hamiltonian_time=cfg.r * factors * p.tau_s
        + (cfg.tau if cfg.include_coherent else 0.0),
        controlled_a_count=cfg.r * factors,
    )


@dataclass
class SimulationRecord:
    """Per-step time series of a run (means and standard errors over reps)."""

    steps: np.ndarray
    times: np.ndarray
    h_time: np.ndarray
    a_gates: np.ndarray
    energy_mean: np.ndarray
    energy_se: np.ndarray
    overlap_mean: np.ndarray
    overlap_se: np.ndarray
    meta: dict = field(default_factory=dict)

    COLUMNS = (
        "step",
        "time",
        "h_time",
        "a_gates",
        "energy_mean",
        "energy_se",
        "overlap_mean",
        "overlap_se",
    )

    def rows(self):
        for i in range(self.steps.size):
            yield (
                int(self.steps[i]),
                float(self.times[i]),
                float(self.h_time[i]),
                int(self.a_gates[i]),
                float(self.energy_mean[i]),
                float(self.energy_se[i]),
                float(self.overlap_mean[i]),
                float(self.overlap_se[i]),
            )

    @property
    def final_energy(self) -> float:
        return float(self.energy_mean[-1])

    @property
    def final_overlap(self) -> float:
        return float(self.overlap_mean[-1])

    def h_time_at_overlap(self, threshold: float) -> float | None:
        """Hamiltonian time at the first recorded step with overlap >= threshold."""
        hits = np.nonzero(self.overlap_mean >= threshold)[0]
        if hits.size == 0:
            return None
        return float(self.h_time[hits[0]])


def _atilde_diagonals(
    a_eigvals: np.ndarray, phi: float, theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of exp(-i phi P(theta) x A), P = cos(theta) X + sin(theta) Y,
    in the eigenbasis of A, where each block is diagonal.

    Returns the diagonals (c, off01, off10) of the blocks of
    [[C, off01], [off10, C]]: c = cos(phi a), off01 = -i e^{-i theta}
    sin(phi a), off10 = -i e^{i theta} sin(phi a), for eigenvalues a of A.
    """
    sin_d = np.sin(phi * a_eigvals)
    return (
        np.cos(phi * a_eigvals),
        -1j * np.exp(-1j * theta) * sin_d,
        -1j * np.exp(1j * theta) * sin_d,
    )


def _atilde_blocks(
    a_spec: SpectralDecomposition, phi: float, theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blocks (C, off01, off10) of :func:`_atilde_diagonals` in the
    original basis."""
    v = a_spec.eigenvectors
    return tuple((v * d) @ v.conj().T for d in _atilde_diagonals(a_spec.eigenvalues, phi, theta))


def _node_angles(p: FilterParams, tau_eff: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotation angle ``phi_l`` and axis ``theta_l`` of every ``Atilde_l``,
    l = -M..M."""
    nodes, weights = quadrature_grid(p)
    fvals = f_time(nodes, p)
    return 0.5 * np.sqrt(tau_eff) * weights * np.abs(fvals), np.angle(fvals)


def _rotate(x: np.ndarray, a_eigvals: np.ndarray, phi: float, theta: float) -> None:
    """x <- Atilde(phi, theta) x in place, for x of shape (n, 2, k) in the
    eigenbasis of A: x_b <- c x_b + off_b x_{1-b}."""
    c, o01, o10 = _atilde_diagonals(a_eigvals, phi, theta)
    crossed = np.stack([o01, o10], axis=1)[:, :, None] * x[:, ::-1]
    x *= c[:, None, None]
    x += crossed


def _apply_w(
    x: np.ndarray,
    spec: SpectralDecomposition,
    a_spec: SpectralDecomposition,
    p: FilterParams,
    tau_eff: float,
    r: int,
) -> np.ndarray:
    """W^r x for a block x of shape (n, 2, k) held in the eigenbasis of A.

    The axes are (row, ancilla, column), so a frame hop acts on both
    ancilla blocks as one (n, n) @ (n, 2k) GEMM.  ``x`` is overwritten.
    """
    n, _, k = x.shape
    q = spec.eigenvectors.conj().T @ a_spec.eigenvectors
    # e^{-iH tau_s} and e^{+iH tau_s} in the eigenbasis of A
    hop_bwd = (q.conj().T * np.exp(-1j * spec.eigenvalues * p.tau_s)) @ q
    hop_fwd = hop_bwd.conj().T
    phis, thetas = _node_angles(p, tau_eff)
    lam = a_spec.eigenvalues
    last = phis.size - 1

    def hop(u: np.ndarray, x: np.ndarray) -> np.ndarray:
        return (u @ x.reshape(n, 2 * k)).reshape(n, 2, k)

    for _ in range(r):
        for l in range(last):  # (I x e^{-iH tau_s}) Atilde_l, l = -M .. M-1
            _rotate(x, lam, phis[l], thetas[l])
            x = hop(hop_bwd, x)
        # the frame hops around the middle node cancel: Atilde_M^2
        _rotate(x, lam, 2 * phis[last], thetas[last])
        for l in range(last - 1, -1, -1):  # Atilde_l (I x e^{+iH tau_s}), l = M-1 .. -M
            x = hop(hop_fwd, x)
            _rotate(x, lam, phis[l], thetas[l])
    return x


def isometry_defect(m0: np.ndarray, m1: np.ndarray) -> float:
    """max|M0^dag M0 + M1^dag M1 - I|, zero for a trace-preserving pair."""
    return max_abs(m0.conj().T @ m0 + m1.conj().T @ m1 - np.eye(m0.shape[1]))


def build_kraus_pair(
    spec: SpectralDecomposition,
    a: HermitianOperator,
    p: FilterParams,
    cfg: ChannelConfig,
    u_coherent: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair ``M_b = U <b| W(sqrt(tau)/r)^r |0>`` of one evolution step.

    ``U`` is ``u_coherent``, which must be ``e^{-iH tau}``, when the coherent
    part is on and the identity otherwise.  Memory stays O(N^2): only the
    2N x N block column is formed.
    """
    if spec.dim != a.dim:
        raise ValueError("dimension mismatch between spectrum and coupling")
    if cfg.include_coherent and u_coherent is None:
        raise ChannelError("coherent step requested but no e^{-iH tau} supplied")
    a_spec = hermitian_eig(a)
    va = a_spec.eigenvectors
    x = np.zeros((spec.dim, 2, spec.dim), dtype=complex)
    x[:, 0] = va.conj().T
    x = _apply_w(x, spec, a_spec, p, cfg.tau_eff, cfg.r)
    back = u_coherent @ va if cfg.include_coherent else va
    m0, m1 = back @ x[:, 0], back @ x[:, 1]
    defect = isometry_defect(m0, m1)
    if not defect <= 1e-10:
        raise ChannelError(
            f"Kraus pair lost trace preservation: max|M0^dag M0 + M1^dag M1 - I| = {defect:.3e}"
        )
    return m0, m1


def build_w(
    spec: SpectralDecomposition,
    a: HermitianOperator,
    p: FilterParams,
    tau_eff: float,
) -> np.ndarray:
    """Second-order ordered-product unitary approximating
    ``exp(-i sqrt(tau_eff) Ktilde_s)`` up to the cancelled outer frames.

    ``tau_eff`` is the per-segment dissipative weight: ``tau`` for a single
    segment, ``tau / r^2`` when a step of size ``tau`` is split into ``r``
    segments (the unitary argument multiplies, so ``r`` segments of
    ``sqrt(tau)/r`` compose to ``sqrt(tau)``).  Runs use
    :func:`build_kraus_pair`; the full ``W`` is an oracle.
    """
    if tau_eff <= 0:
        raise ValueError("tau_eff must be positive")
    if spec.dim != a.dim:
        raise ValueError("dimension mismatch between spectrum and coupling")
    a_spec = hermitian_eig(a)
    va = a_spec.eigenvectors
    n = spec.dim
    x = np.zeros((n, 2, 2 * n), dtype=complex)
    x[:, 0, :n] = x[:, 1, n:] = va.conj().T
    x = _apply_w(x, spec, a_spec, p, tau_eff, 1)
    w = np.concatenate([va @ x[:, 0], va @ x[:, 1]])
    defect = max_abs(w.conj().T @ w - np.eye(2 * n))
    if not defect <= 1e-10:
        raise ChannelError(f"W lost unitarity: max|W^dag W - I| = {defect:.3e}")
    return w


def build_w_naive(
    spec: SpectralDecomposition,
    a: HermitianOperator,
    p: FilterParams,
    tau_eff: float,
) -> np.ndarray:
    """Pre-cancellation ordered product, kept as an independent reference.

    Every node carries its full Heisenberg frame
    ``(I x e^{+iH s_l}) Atilde_l (I x e^{-iH s_l})``; the result equals
    ``(I x e^{-iHG}) W (I x e^{+iHG})`` with ``G`` the grid radius.
    """
    a_spec = hermitian_eig(a)
    nodes, _ = quadrature_grid(p)
    phis, thetas = _node_angles(p, tau_eff)
    n = spec.dim

    def frame(t: float) -> np.ndarray:
        return np.kron(np.eye(2), evolution_unitary(spec, t))

    conjugated = []
    for s_l, phi, theta in zip(nodes, phis, thetas):
        c, o01, o10 = _atilde_blocks(a_spec, phi, theta)
        atilde = np.block([[c, o01], [o10, c]])
        conjugated.append(frame(-s_l) @ atilde @ frame(s_l))

    out = np.eye(2 * n, dtype=complex)
    for mat in conjugated:  # right-ordered
        out = out @ mat
    for mat in reversed(conjugated):  # left-ordered
        out = out @ mat
    return out


def channel_step_density(rho: np.ndarray, kraus: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One step of the density-matrix backend: M0 rho M0^dag + M1 rho M1^dag
    for the pair from :func:`build_kraus_pair`, symmetrized.

    Raises :class:`ChannelError` on a non-finite entry or a trace off 1 by
    more than 1e-9.
    """
    m0, m1 = kraus
    out = m0 @ rho @ m0.conj().T + m1 @ rho @ m1.conj().T
    out = (out + out.conj().T) / 2
    if not np.isfinite(out).all():
        raise ChannelError("channel step produced NaN/Inf entries")
    tr = float(np.trace(out).real)
    if not abs(tr - 1.0) <= 1e-9:
        raise ChannelError(f"channel step trace drifted to {tr}")
    return out


def trajectory_step(
    psi: np.ndarray, kraus: tuple[np.ndarray, np.ndarray], u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One stochastic step of a block of trajectories, one per column of
    ``psi`` (n, reps): apply W^r to |0> x psi, measure the ancilla, discard
    the outcome, reset, then (optionally) apply e^{-iH tau} -- i.e. column j
    becomes M1 psi_j if ``u[j] < |M1 psi_j|^2`` and M0 psi_j otherwise, for
    the pair from :func:`build_kraus_pair`, renormalised.

    Returns (new block, per-column click flags).  The clicks are recorded
    for diagnostics only; the scheme never conditions on them.
    """
    nrm = np.linalg.norm(psi, axis=0)
    off = ~(np.abs(nrm - 1.0) <= 1e-9)
    if off.any():
        raise ChannelError(f"trajectory state norm {nrm[off][0]} is not 1")
    m0, m1 = kraus
    branch1 = m1 @ psi
    p1 = np.einsum("ij,ij->j", branch1.conj(), branch1).real
    clicks = u < p1
    collapsed = np.where(clicks, branch1, m0 @ psi)
    weight = np.linalg.norm(collapsed, axis=0)
    vanishing = ~(weight >= 1e-12)
    if vanishing.any():
        raise ChannelError(
            f"measurement branch {int(clicks[vanishing][0])} has vanishing probability; "
            "trajectory aborted"
        )
    return collapsed / weight, clicks


def _initial_vector(spec: SpectralDecomposition, cfg: ChannelConfig) -> np.ndarray:
    if cfg.initial_state == "highest_excited":
        return spec.eigenvectors[:, -1].copy()
    if cfg.initial_state == "ground":
        return spec.eigenvectors[:, 0].copy()
    idx = cfg.eigenstate_index
    if idx >= spec.dim:
        raise ValueError(f"eigenstate index {idx} out of range for dimension {spec.dim}")
    return spec.eigenvectors[:, idx].copy()


def _record_steps(n_steps: int, stride: int) -> np.ndarray:
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.asarray(steps, dtype=int)


def run_simulation(
    model: ModelSpec | tuple[HermitianOperator, HermitianOperator],
    cfg: ChannelConfig,
    filter_overrides: dict | None = None,
) -> SimulationRecord:
    """Full time series for one configuration.

    ``model`` is either a :class:`ModelSpec` or an explicit
    ``(hamiltonian, coupling)`` pair.  The filter is the parameter rule
    applied to the computed spectral norm and gap, with
    ``filter_overrides`` (a run config's ``filter`` block) on top; invalid
    overrides raise ``ConfigError``.

    Both backends run the same record loop: advance to the next recorded
    step, observe, repeat.  The trajectory backend steps all ``cfg.reps``
    trajectories as one (n, reps) block; trajectory ``i`` draws its
    uniforms from its own ``SeedSequence([cfg.seed, i])`` stream, so its
    path does not depend on ``cfg.reps``, and a run is byte-identical at a
    fixed BLAS thread count.
    """
    if isinstance(model, ModelSpec):
        h = model.hamiltonian()
        a = coupling_operator(model)
    else:
        h, a = model
    spec = hermitian_eig(h)
    if spec.gap <= 1e-9:
        warnings.warn(
            "ground space is (near-)degenerate (gap <= 1e-9); overlap is "
            "measured against the full ground-space projector",
            stacklevel=2,
        )
    from .config import resolve_filter_params  # config imports this module

    p = resolve_filter_params(filter_overrides or {}, spec.spectral_norm, spec.gap)

    u_coh = evolution_unitary(spec, cfg.tau) if cfg.include_coherent else None
    kraus = build_kraus_pair(spec, a, p, cfg, u_coh)
    ground_proj = spec.ground_projector()
    record_steps = _record_steps(cfg.n_steps, cfg.record_stride)
    per_step = step_cost(p, cfg)
    h_time = record_steps * per_step.hamiltonian_time
    a_gates = record_steps * per_step.controlled_a_count
    health = {"kraus_isometry_defect": isometry_defect(*kraus)}

    if cfg.backend == "density":
        state = DensityMatrix.pure(_initial_vector(spec, cfg)).matrix

        def advance(rho: np.ndarray, span: int) -> np.ndarray:
            for _ in range(span):
                rho = channel_step_density(rho, kraus)
            return rho

        def observe(rho: np.ndarray) -> tuple[float, float]:
            # Tr(X rho) = vdot(X, rho) for Hermitian X: O(n^2), no product formed
            return np.vdot(h.matrix, rho).real, np.vdot(ground_proj, rho).real

    else:
        state = np.repeat(_initial_vector(spec, cfg)[:, None], cfg.reps, axis=1)
        rngs = [
            np.random.default_rng(np.random.SeedSequence([cfg.seed, i])) for i in range(cfg.reps)
        ]
        click_rate = health["click_rate"] = []

        def advance(psi: np.ndarray, span: int) -> np.ndarray:
            u = np.stack([g.random(span) for g in rngs], axis=1)
            clicks = 0
            for u_step in u:
                psi, clicked = trajectory_step(psi, kraus, u_step)
                clicks += int(np.count_nonzero(clicked))
            click_rate.append(clicks / (span * cfg.reps))
            return psi

        def observe(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            def expect(x):
                return np.einsum("ij,ij->j", psi.conj(), x @ psi).real

            return expect(h.matrix), expect(ground_proj)

    observed = [observe(state)]
    for span in np.diff(record_steps):
        state = advance(state, int(span))
        observed.append(observe(state))
    # (recorded step, trajectory); the density backend has one exact column
    energies = np.array([e for e, _ in observed]).reshape(record_steps.size, -1)
    overlaps = np.array([o for _, o in observed]).reshape(record_steps.size, -1)
    width = energies.shape[1]
    e_mean, o_mean = energies.mean(axis=1), overlaps.mean(axis=1)
    if width > 1:
        e_se = energies.std(axis=1, ddof=1) / np.sqrt(width)
        o_se = overlaps.std(axis=1, ddof=1) / np.sqrt(width)
    else:
        e_se, o_se = np.zeros_like(e_mean), np.zeros_like(o_mean)

    if np.any(o_mean < -1e-9) or np.any(o_mean > 1 + 1e-9):
        raise ChannelError("recorded overlap left [0, 1]")
    lo, hi = spec.eigenvalues[0], spec.eigenvalues[-1]
    if np.any(e_mean < lo - 1e-6) or np.any(e_mean > hi + 1e-6):
        raise ChannelError("recorded energy left the spectral range")

    meta = {
        "filter": {**asdict(p), "grid_radius": p.grid_radius},
        "channel": {**asdict(cfg), "n_steps": cfg.n_steps},
        "health": health,
        "spectrum": {
            "ground_energy": float(spec.eigenvalues[0]),
            "max_energy": float(spec.eigenvalues[-1]),
            "gap": spec.gap,
            "spectral_norm": spec.spectral_norm,
            "dim": spec.dim,
        },
    }
    return SimulationRecord(
        steps=record_steps,
        times=record_steps * cfg.tau,
        h_time=h_time,
        a_gates=a_gates,
        energy_mean=e_mean,
        energy_se=e_se,
        overlap_mean=o_mean,
        overlap_se=o_se,
        meta=meta,
    )
