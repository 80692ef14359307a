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
column ``<b| W^r |0>`` (b = 0, 1): the Kraus pair ``[M0, M1]``, with
``e^{-iH tau}`` folded in.  :func:`build_kraus_pair` streams the factors
onto that 2N x N block in the eigenbasis of ``A``, where every ``Atilde_l``
is 2 x 2-block diagonal (O(N^2) work) and every frame hop is one GEMM, so
neither ``W`` nor its factors are ever formed.  :func:`build_w` runs the
same kernel on the 2N x 2N identity and, with :func:`build_w_naive`,
serves as the oracle.

Every factor of ``W`` is block-diagonal on the connected components of the
joint nonzero pattern of ``H`` and ``A`` (:func:`invariant_blocks`), so
neither the channel nor the dynamics ever links two blocks.
:func:`spectrum` partitions ``(H, A)`` once and hands back one record per
block: its ``H`` and ``A``, the spectrum of its ``H`` and the global rank of
each of its levels.  :func:`prepare` builds only the block of the initial
eigenstate, the one :func:`evolve` steps: a block of size ``d``
costs ``r * 2 * (2M + 1)`` hops of ``(d, d) @ (d, 2d)``.  This is exact,
not an approximation.  TFIM is one block; the Hubbard chain splits into its
(N_up, N_dn) sectors (25 for four sites, the largest of size 36).

The trajectory backend samples waiting times, the quantum-jump method of
Dalibard, Castin and Molmer (PRL 68, 580 (1992)): a trajectory clicks at
the first step whose no-click survival ``|M0^k psi|^2`` falls below a
uniform threshold it drew, so a record span of L steps is one GEMM with
``M0^L`` for all trajectories, and only the few whose survival falls
below their threshold are stepped one step at a time
(:func:`trajectory_step`).

Cost accounting: every ``Atilde_l`` counts as one controlled-A gate and
every ``e^{+/- i H t}`` factor contributes ``|t|`` of Hamiltonian
simulation time, so one step costs ``r * 2 * (2M + 1)`` gates and
``r * 2 * (2M + 1) * tau_s`` (+ ``tau`` when coherent) of time.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .filters import FilterParams, f_time, quadrature_grid
from .linalg import (
    STEP_DRIFT,
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    evolution_unitary,
    hermitian_eig,
    max_abs,
    mean_se,
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
    "invariant_blocks",
    "restrict",
    "spectrum",
    "isometry_defect",
    "step_cost",
    "channel_step_density",
    "trajectory_step",
    "Preparation",
    "prepare",
    "evolve",
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
        if not (math.isfinite(self.tau) and math.isfinite(self.total_time)):
            raise ValueError("tau and total_time must be finite")
        if self.tau <= 0 or self.total_time <= 0:
            raise ValueError("tau and total_time must be positive")
        if self.r < 1:
            raise ValueError("segment count r must be >= 1")
        steps = self.total_time / self.tau
        if not steps < 2**63:
            raise ValueError(f"total_time / tau = {steps:.3g} steps does not fit a 64-bit count")
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("total_time must be an integer multiple of tau")
        if round(steps) < 1:
            raise ValueError(f"total_time / tau = {steps:.3g} is less than one step")
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
        """One tuple of Python numbers per recorded step, in ``COLUMNS`` order."""
        columns = (self.steps, self.times, self.h_time, self.a_gates,
                   self.energy_mean, self.energy_se, self.overlap_mean, self.overlap_se)
        return zip(*(column.tolist() for column in columns))

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
    a_eigvals: np.ndarray, phi: float | np.ndarray, theta: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of exp(-i phi P(theta) x A), P = cos(theta) X + sin(theta) Y,
    in the eigenbasis of A, where each block is diagonal.

    Returns the diagonals (c, off01, off10) of the blocks of
    [[C, off01], [off10, C]]: c = cos(phi a), off01 = -i e^{-i theta}
    sin(phi a), off10 = -i e^{i theta} sin(phi a), for eigenvalues a of A.
    ``phi`` and ``theta`` may be arrays of one angle per node; the node
    axis then leads.
    """
    phi_a = np.multiply.outer(phi, a_eigvals)
    sin_d = np.sin(phi_a)
    return (
        np.cos(phi_a),
        (-1j * np.exp(-1j * theta))[..., None] * sin_d,
        (-1j * np.exp(1j * theta))[..., None] * sin_d,
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


def _frame_hop(spec: SpectralDecomposition, va: np.ndarray, tau_s: float) -> np.ndarray:
    """``e^{-iH tau_s}`` in the eigenbasis ``va`` of ``A``."""
    q = spec.eigenvectors.conj().T @ va
    return (q.conj().T * np.exp(-1j * spec.eigenvalues * tau_s)) @ q


def _apply_w(
    x: np.ndarray,
    hop_bwd: np.ndarray,
    a_eigvals: np.ndarray,
    angles: tuple[np.ndarray, np.ndarray],
    r: int,
) -> np.ndarray:
    """W^r x for a block x of shape (n, 2, k) held in the eigenbasis of A.

    ``hop_bwd`` is ``e^{-iH tau_s}`` in that basis and ``angles`` the node
    angles of :func:`_node_angles`.  The axes are (row, ancilla, column), so
    a frame hop acts on both ancilla blocks as one (n, n) @ (n, 2k) GEMM.
    Every node's diagonals are computed once, up front; the hops alternate
    between ``x`` and one more buffer, so ``x`` is overwritten.
    """
    n, _, k = x.shape
    hop_fwd = hop_bwd.conj().T
    phis, thetas = angles
    last = phis.size - 1
    # the frame hops around the middle node cancel: Atilde_M^2
    phis = np.concatenate([phis[:last], 2 * phis[last:]])
    cos_d, o01, o10 = _atilde_diagonals(a_eigvals, phis, thetas)
    off = np.stack([o01, o10], axis=2)[..., None]  # (node, n, 2, 1)
    spare = np.empty_like(x)
    crossed = np.empty_like(x)

    def rotate(x: np.ndarray, l: int) -> None:  # x_b <- c x_b + off_b x_{1-b}, in place
        np.multiply(off[l], x[:, ::-1], out=crossed)
        x *= cos_d[l, :, None, None]
        x += crossed

    def hop(u: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.matmul(u, x.reshape(n, 2 * k), out=out.reshape(n, 2 * k))
        return out

    for _ in range(r):
        for l in range(last):  # (I x e^{-iH tau_s}) Atilde_l, l = -M .. M-1
            rotate(x, l)
            x, spare = hop(hop_bwd, x, spare), x
        rotate(x, last)
        for l in range(last - 1, -1, -1):  # Atilde_l (I x e^{+iH tau_s}), l = M-1 .. -M
            x, spare = hop(hop_fwd, x, spare), x
            rotate(x, l)
    return x


def invariant_blocks(*ops: HermitianOperator) -> list[np.ndarray]:
    """Connected components of the joint nonzero pattern of ``ops``.

    Each component is an ascending array of basis indices; components are
    ordered by their first index.  Every operator, and so every function of
    one, is block-diagonal on them.  The pattern is exact (``!= 0``, no
    tolerance), so an entry of 1e-300 still links its two indices.
    """
    linked = np.logical_or.reduce([op.matrix != 0 for op in ops])
    unseen = np.ones(linked.shape[0], dtype=bool)
    blocks = []
    while unseen.any():
        block = np.zeros_like(unseen)
        frontier = block.copy()
        frontier[np.argmax(unseen)] = True
        while frontier.any():  # breadth-first: each row is read once
            block |= frontier
            frontier = linked[frontier].any(axis=0) & ~block
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def restrict(op: HermitianOperator, idx: np.ndarray) -> HermitianOperator:
    """``op`` on the basis indices ``idx``, and ``op`` itself, not a copy, on all of them."""
    return op if idx.size == op.dim else HermitianOperator(op.matrix[np.ix_(idx, idx)])


def isometry_defect(m0: np.ndarray, m1: np.ndarray) -> float:
    """max|M0^dag M0 + M1^dag M1 - I|, zero for a trace-preserving pair."""
    return max_abs(m0.conj().T @ m0 + m1.conj().T @ m1 - np.eye(m0.shape[1]))


def build_kraus_pair(
    spec: SpectralDecomposition,
    a: HermitianOperator,
    p: FilterParams,
    cfg: ChannelConfig,
) -> tuple[np.ndarray, float]:
    """Kraus pair ``M_b = U <b| W(sqrt(tau)/r)^r |0>`` of one evolution step.

    ``spec`` is the spectrum of ``H``.  ``U`` is ``e^{-iH tau}``, formed
    from ``spec``, when the coherent part is on and the identity otherwise.
    Memory stays O(N^2): only the 2N x N block column is formed.  Returns
    ``(kraus, defect)``: ``kraus`` is the ``(2, N, N)`` array ``[M0, M1]``
    and ``defect`` its :func:`isometry_defect`; the pair is refused unless
    that is at most 1e-10.
    """
    if spec.dim != a.dim:
        raise ValueError("dimension mismatch between spectrum and coupling")
    a_spec = hermitian_eig(a)
    va = a_spec.eigenvectors
    n = spec.dim
    x = np.zeros((n, 2, n), dtype=complex)
    x[:, 0] = va.conj().T
    hop = _frame_hop(spec, va, p.tau_s)
    x = _apply_w(x, hop, a_spec.eigenvalues, _node_angles(p, cfg.tau_eff), cfg.r)
    back = evolution_unitary(spec, cfg.tau) @ va if cfg.include_coherent else va
    kraus = back @ x.transpose(1, 0, 2)
    defect = isometry_defect(*kraus)
    if not defect <= 1e-10:
        raise ChannelError(
            f"Kraus pair lost trace preservation: max|M0^dag M0 + M1^dag M1 - I| = {defect:.3e}"
        )
    return kraus, defect


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
    hop = _frame_hop(spec, va, p.tau_s)
    x = _apply_w(x, hop, a_spec.eigenvalues, _node_angles(p, tau_eff), 1)
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


def channel_step_density(rho: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """One step of the density-matrix backend: M0 rho M0^dag + M1 rho M1^dag
    for the pair ``[M0, M1]`` from :func:`build_kraus_pair`, applied as one
    batched product and symmetrized.

    Raises :class:`ChannelError` on a non-finite entry or when the step
    moves the trace by more than :data:`STEP_DRIFT`, ``|tr out - tr rho|``.
    """
    out = (kraus @ rho @ np.conj(kraus).swapaxes(1, 2)).sum(axis=0)
    out = (out + out.conj().T) / 2
    if not np.isfinite(out).all():
        raise ChannelError("channel step produced NaN/Inf entries")
    tr, tr_in = float(out.trace().real), float(rho.trace().real)
    if not abs(tr - tr_in) <= STEP_DRIFT:
        raise ChannelError(f"channel step trace drifted to {tr} from {tr_in}")
    return out


def _squared_column_norms(x: np.ndarray) -> np.ndarray:
    """``|x[:, j]|^2`` for a matrix ``x``: the squares of its float view
    summed, with no conjugate copy."""
    f = np.ascontiguousarray(x, dtype=complex).view(np.float64)  # re, im interleaved
    squares = np.einsum("ij,ij->j", f, f)
    return squares[0::2] + squares[1::2]


def trajectory_step(
    psi: np.ndarray,
    kraus: np.ndarray,
    power: np.ndarray,
    span: int,
    q: np.ndarray,
    rngs: list,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a block of trajectories, one per column of ``psi`` (n, reps),
    over one record span of ``span`` steps, by waiting times.

    One step applies W^r to |0> x psi, measures the ancilla, discards the
    outcome, resets it, then (optionally) applies e^{-iH tau}: for the pair
    ``[M0, M1]`` from :func:`build_kraus_pair`, psi becomes M1 psi (a
    click) or M0 psi, renormalised.  Column j holds the threshold ``q[j]``
    and clicks at the first step k whose survival ``|M0^k psi_j|^2`` falls
    below it; it then becomes ``M1 M0^(k-1) psi_j``, renormalised, and
    draws its next threshold ``rngs[j].random()``, against which its
    survival restarts from 1.  As ``M0^dag M0 + M1^dag M1 = I``, clicks and
    paths have the law of one uniform draw per step.

    ``power`` is ``M0^span``: one GEMM advances every column, and as a
    survival never rises (up to the pair's defect), a column whose
    survival at the end is at least its threshold did not click.  Only the
    others are stepped again, one M0 product per step, with M1 applied in
    one product to the columns that click at that step; at ``span`` 1 the
    re-step reuses the first product.  Nothing is renormalised inside the
    span: a clicked column keeps its branch, whose weight then scales its
    next draw.

    Returns ``(block, thresholds, clicks)``: the block normalised, each
    threshold divided by its column's survival, so that it stands against
    the survival from this record on, and the number of clicks of each
    column.  The clicks are recorded for diagnostics only; the scheme never
    conditions on them.  Refused: an input column whose norm is off 1 by
    more than :data:`STEP_DRIFT`; a survival at the end of the span that
    is not finite, exceeds ``1 + span * STEP_DRIFT`` or is below 1e-24; a
    clicked branch whose weight is below 1e-24 of the survival before its
    step.
    """
    nrm2 = _squared_column_norms(psi)
    off = ~(np.abs(np.sqrt(nrm2) - 1.0) <= STEP_DRIFT)
    if off.any():
        raise ChannelError(f"trajectory state norm {np.sqrt(nrm2[off][0])} is not 1")
    m0, m1 = kraus
    out = power @ psi
    survival = _squared_column_norms(out)
    clicks = np.zeros(q.shape, dtype=int)

    def click(x: np.ndarray, before: np.ndarray, cols: np.ndarray) -> tuple:
        """M1 x, its weight and the next thresholds of columns ``cols``;
        the branch is not renormalised, so its threshold is the next draw
        times its weight."""
        branch = m1 @ x
        weight = _squared_column_norms(branch)
        if not np.all(weight >= 1e-24 * before):
            raise ChannelError("measurement branch 1 has vanishing probability; trajectory aborted")
        clicks[cols] += 1
        return branch, weight, weight * np.array([rngs[j].random() for j in cols])

    late = np.flatnonzero(survival < q)
    q = q.copy()
    if late.size and span == 1:  # each late column clicks at the one step
        out[:, late], survival[late], q[late] = click(psi[:, late], nrm2[late], late)
    elif late.size:  # step the late columns again, one step at a time
        x, before, q_late = psi[:, late], nrm2[late], q[late]
        for _ in range(span):
            after = m0 @ x
            s = _squared_column_norms(after)
            hit = np.flatnonzero(s < q_late)
            if hit.size:
                after[:, hit], s[hit], q_late[hit] = click(x[:, hit], before[hit], late[hit])
            x, before = after, s
        out[:, late], survival[late], q[late] = x, before, q_late
    high = ~(survival <= 1.0 + span * STEP_DRIFT)
    if high.any():
        raise ChannelError(f"trajectory norm grew: survival {survival[high][0]} over {span} steps")
    if not np.all(survival >= 1e-24):
        raise ChannelError("measurement branch 0 has vanishing probability; trajectory aborted")
    out *= 1.0 / np.sqrt(survival)
    return out, q / survival, clicks


def _initial_level(cfg: ChannelConfig, dim: int) -> int:
    """Index of the initial eigenstate among the ``dim`` ascending levels."""
    if cfg.initial_state == "highest_excited":
        return dim - 1
    if cfg.initial_state == "ground":
        return 0
    idx = cfg.eigenstate_index
    if idx >= dim:
        raise ValueError(f"eigenstate index {idx} out of range for dimension {dim}")
    return idx


def _record_steps(n_steps: int, stride: int) -> np.ndarray:
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.asarray(steps, dtype=int)


Block = namedtuple("Block", "idx h a spec ranks")
Spectrum = namedtuple("Spectrum", "dim blocks levels gap norm_h params")


def spectrum(model: ModelSpec, filter_overrides: dict | None = None) -> Spectrum:
    """Levels, invariant blocks and filter of ``model``; the one place that
    sees the full-space ``H`` and ``A``.

    ``(H, A)`` is partitioned once (:func:`invariant_blocks`), and each
    block is one :class:`Block` record: its basis indices ``idx``, the two
    operators restricted to it (``h``, ``a``), the spectrum ``spec`` of its
    ``h``, one eigensolve per block, and ``ranks``, the place of each of its
    levels among all ``dim`` levels: ``levels[ranks] == spec.eigenvalues``.
    ``levels`` is every block's levels in ascending order, by a stable sort,
    so levels that tie exactly across blocks keep the order of their blocks.
    The filter ``params`` is the parameter rule applied to their spectral
    norm and gap, with ``filter_overrides`` (a run config's ``filter``
    block) on top; invalid overrides raise ``ConfigError``.
    """
    h, a = model.hamiltonian(), coupling_operator(model)
    parts = [(idx, restrict(h, idx), restrict(a, idx)) for idx in invariant_blocks(h, a)]
    specs = [hermitian_eig(h_block) for _, h_block, _ in parts]
    levels = np.concatenate([s.eigenvalues for s in specs])
    order = np.argsort(levels, kind="stable")
    levels = levels[order]
    ranks = np.split(np.argsort(order), np.cumsum([s.dim for s in specs])[:-1])
    blocks = [Block(*part, spec, at) for part, spec, at in zip(parts, specs, ranks)]
    gap = float(levels[1] - levels[0]) if levels.size > 1 else 0.0
    norm_h = float(np.max(np.abs(levels)))
    from .config import MIN_GAP, resolve_filter_params  # config imports this module

    # without a gap this raises ConfigError unless every filter field is given
    p = resolve_filter_params(filter_overrides or {}, norm_h, gap)
    if gap <= MIN_GAP:
        warnings.warn(
            f"ground space is (near-)degenerate (gap <= {MIN_GAP:g}); overlap is "
            "measured against the full ground-space projector",
            stacklevel=3,
        )
    return Spectrum(h.dim, blocks, levels, gap, norm_h, p)


@dataclass(frozen=True)
class Preparation:
    """What :func:`prepare` builds for ``cfg``: the filter, ``meta``'s filter,
    health and spectrum, and, on the :class:`Block` of the initial level, its
    H matrix, Kraus pair, ground projector and psi0."""

    # the config fields that no build reads, which :func:`evolve` may change
    PER_RUN = ("backend", "reps", "seed", "record_stride", "total_time")

    cfg: ChannelConfig
    params: FilterParams
    meta: dict
    h_block: np.ndarray
    kraus: np.ndarray
    ground_proj: np.ndarray
    psi0: np.ndarray


def prepare(
    model: ModelSpec, cfg: ChannelConfig, filter_overrides: dict | None = None
) -> Preparation:
    """Everything of a run of ``cfg`` before its first step.

    :func:`spectrum` owns the partition and the level ranks; the initial
    level's rank picks its block, and the levels feed the spectral-range
    check of :func:`evolve` and ``meta["spectrum"]``.  A run evolves only
    that block: its state, Kraus pair and ground projector come from the
    block's own record, the projector onto its levels within 1e-9 of the
    global ground energy.  No step leaves the block, so this is exact; a
    ground state in another block has overlap exactly 0.
    """
    dim, blocks, levels, gap, norm_h, p = spectrum(model, filter_overrides)
    k = _initial_level(cfg, dim)
    idx, h, a, spec, ranks = next(block for block in blocks if k in block.ranks)
    kraus, defect = build_kraus_pair(spec, a, p, cfg)
    vg = spec.eigenvectors[:, spec.eigenvalues <= levels[0] + 1e-9]
    meta = {
        "filter": {**asdict(p), "grid_radius": p.grid_radius},
        "health": {"kraus_isometry_defect": defect, "block_dim": int(idx.size)},
        "spectrum": {"ground_energy": float(levels[0]), "max_energy": float(levels[-1]),
                     "gap": gap, "spectral_norm": norm_h, "dim": dim},
    }
    psi0 = spec.eigenvectors[:, ranks.tolist().index(k)]
    return Preparation(cfg, p, meta, h.matrix, kraus, vg @ vg.conj().T, psi0)


def evolve(prep: Preparation, cfg: ChannelConfig) -> SimulationRecord:
    """Full time series of ``cfg`` from the preparation ``prep``.

    ``cfg`` may differ from ``prep.cfg`` in :attr:`Preparation.PER_RUN`
    only, so one preparation serves a density run and every seed; any other
    difference raises ``ValueError`` naming the first field that differs.

    Both backends run the same record loop: advance to the next recorded
    step, observe, repeat.  The trajectory backend advances all
    ``cfg.reps`` trajectories as one (n, reps) block over each record span
    (:func:`trajectory_step`) with the power ``M0^L`` of the span's length
    L, made once for each distinct length: the stride, and a shorter last
    span.  Trajectory ``i`` draws from its own ``SeedSequence([cfg.seed,
    i])`` generator its first threshold and one more after each click, and
    nothing else, so its clicks depend on neither ``cfg.reps`` nor
    ``cfg.record_stride``, and a run is byte-identical at a fixed BLAS
    thread count.  ``health.click_rate`` holds the clicks of each span
    over ``span * reps``.  The recorded energies must stay within the
    spectral range up to ``1e-6 * max(1, |H|)``.
    """
    for f in fields(ChannelConfig):
        if f.name not in prep.PER_RUN and getattr(cfg, f.name) != getattr(prep.cfg, f.name):
            raise ValueError(f"cfg differs from the prepared config in {f.name!r}")
    kraus, h_block, ground_proj, psi0 = prep.kraus, prep.h_block, prep.ground_proj, prep.psi0
    record_steps = _record_steps(cfg.n_steps, cfg.record_stride)
    spans = np.diff(record_steps)
    per_step = step_cost(prep.params, cfg)
    meta = {key: dict(part) for key, part in prep.meta.items()}  # each record owns its meta
    meta["channel"] = {**asdict(cfg), "n_steps": cfg.n_steps}
    health, spectral = meta["health"], meta["spectrum"]

    if cfg.backend == "density":
        state = DensityMatrix.pure(psi0).matrix

        def advance(rho: np.ndarray, span: int) -> np.ndarray:
            for _ in range(span):
                rho = channel_step_density(rho, kraus)
            return rho

        def observe(rho: np.ndarray) -> tuple[float, float]:
            # Tr(X rho) = vdot(X, rho) for Hermitian X: O(n^2), no product formed
            return np.vdot(h_block, rho).real, np.vdot(ground_proj, rho).real

    else:
        seeds = (np.random.SeedSequence([cfg.seed, i]) for i in range(cfg.reps))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        # (block, thresholds): each trajectory's first threshold is its first draw
        state = np.repeat(psi0[:, None], cfg.reps, axis=1), np.array([g.random() for g in rngs])
        powers = {span: np.linalg.matrix_power(kraus[0], span) for span in set(spans.tolist())}
        click_rate = health["click_rate"] = []

        def advance(state: tuple, span: int) -> tuple:
            psi, q, clicks = trajectory_step(state[0], kraus, powers[span], span, state[1], rngs)
            click_rate.append(int(clicks.sum()) / (span * cfg.reps))
            return psi, q

        def observe(state: tuple) -> tuple[np.ndarray, np.ndarray]:
            psi = state[0]

            def expect(x):
                return np.einsum("ij,ij->j", psi.conj(), x @ psi).real

            return expect(h_block), expect(ground_proj)

    observed = [observe(state)]
    for span in spans.tolist():
        state = advance(state, span)
        observed.append(observe(state))
    # (recorded step, trajectory); the density backend has one exact column
    energies, overlaps = (np.array(x).reshape(record_steps.size, -1) for x in zip(*observed))
    (e_mean, e_se), (o_mean, o_se) = mean_se(energies, 1), mean_se(overlaps, 1)

    if np.any(o_mean < -1e-9) or np.any(o_mean > 1 + 1e-9):
        raise ChannelError("recorded overlap left [0, 1]")
    slack = 1e-6 * max(1.0, spectral["spectral_norm"])
    lo, hi = spectral["ground_energy"] - slack, spectral["max_energy"] + slack
    if np.any(e_mean < lo) or np.any(e_mean > hi):
        raise ChannelError("recorded energy left the spectral range")

    h_time = record_steps * per_step.hamiltonian_time
    a_gates = record_steps * per_step.controlled_a_count
    return SimulationRecord(  # the fields in COLUMNS order, then meta
        record_steps, record_steps * cfg.tau, h_time, a_gates, e_mean, e_se, o_mean, o_se, meta
    )


def run_simulation(
    model: ModelSpec, cfg: ChannelConfig, filter_overrides: dict | None = None
) -> SimulationRecord:
    """Full time series for one configuration: :func:`evolve` of its :func:`prepare`."""
    return evolve(prepare(model, cfg, filter_overrides), cfg)
