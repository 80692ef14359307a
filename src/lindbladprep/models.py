"""Benchmark Hamiltonians and their coupling operators.

Two families are provided as sparse terms (:class:`SparseOperator`):

* transverse-field Ising chain (open boundary),
  ``H = -sum_i Z_i Z_{i+1} - g sum_i X_i`` on ``L`` qubits;
* one-dimensional spinful Hubbard chain (open boundary) under a
  Jordan-Wigner encoding on ``2 L`` qubits, with hopping ``t`` and on-site
  interaction ``U (n_up - 1/2)(n_dn - 1/2)``.

Spin-orbital ordering for the Hubbard chain: mode ``q = 2 (j - 1) + s``
with ``s = 0`` for spin-up and ``1`` for spin-down; Jordan-Wigner strings
act on all lower mode indices.  Site 1 is the leading tensor factor.

Bit convention: in basis state ``i`` of ``n`` qubits, qubit (or mode)
``q`` is bit ``n - 1 - q`` of ``i``, so qubit 0 is the most significant
bit.  A qubit reads 0 for ``Z = +1`` and a mode reads 1 when occupied.

Every operator here is read straight off the table of these bits
(:func:`_bits`, ``n x 2^n`` small integers), never from Kronecker
products.  Diagonal terms (``Z_i Z_{i+1}``, ``Z_1``, the Hubbard
interaction) are sums over the table, one entry per basis state.
Off-diagonal terms flip a fixed set of bits, so each is one coefficient
per state ``i`` at ``(i ^ mask, i)``: ``X_q`` flips bit ``q`` of every
state, and the hopping ``c^dag_p c_q + c^dag_q c_p`` flips modes ``p < q``
of the states where they differ, with the Jordan-Wigner sign ``(-1)`` to
the number of occupied modes strictly between ``p`` and ``q``.  Each entry
is the same exact ``+/-1``, ``+/-t``, ``+/-g`` or ``+/-U/4`` terms, summed
in the same order, as the Kronecker-product sums, so the densified
matrices agree with them bit for bit.  No array of ``dim x dim`` is formed
until :meth:`SparseOperator.dense` is asked for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator

__all__ = [
    "MODEL_PARAMS",
    "ModelSpec",
    "SparseOperator",
    "build_tfim",
    "build_hubbard_1d",
    "coupling_operator",
]

# Qubit ceiling: a TFIM block is the whole space, 4096 x 4096 at 12 qubits.
MAX_QUBITS = 12

# The couplings of each model kind: config key (and CLI flag) -> ModelSpec field.
MODEL_PARAMS = {"tfim": {"g": "tfim_g"}, "hubbard1d": {"t": "hubbard_t", "u": "hubbard_u"}}


@dataclass(frozen=True)
class SparseOperator:
    """A Hermitian operator on ``dim`` basis states as its terms: the entry
    ``vals[k]`` at ``(rows[k], cols[k])``, and zero elsewhere.  Terms that
    share a ``(row, col)`` pair add up."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dense(self, idx: np.ndarray | None = None) -> HermitianOperator:
        """The operator on the ascending basis indices ``idx``, the whole
        space when ``idx`` is None, as a dense :class:`HermitianOperator`:
        ``dense()[np.ix_(idx, idx)]`` bit for bit.  ValueError when a
        nonzero term links ``idx`` to an index outside it."""
        idx = np.arange(self.dim) if idx is None else idx
        pos = np.full(self.dim, -1)
        pos[idx] = np.arange(idx.size)
        rows, cols = pos[self.rows], pos[self.cols]
        row_in, col_in = rows >= 0, cols >= 0
        if np.any((row_in != col_in) & (self.vals != 0)):
            raise ValueError("a nonzero term links the index set to the rest of the space")
        inside = row_in & col_in
        out = np.zeros((idx.size, idx.size), dtype=complex)
        np.add.at(out.reshape(-1), rows[inside] * idx.size + cols[inside], self.vals[inside])
        return HermitianOperator(out)


def _terms(dim: int, parts: list[tuple]) -> SparseOperator:
    """One :class:`SparseOperator` from ``(rows, cols, vals)`` parts."""
    rows, cols, vals = (np.concatenate(column) for column in zip(*parts))
    return SparseOperator(dim, rows, cols, vals.astype(float))


@dataclass(frozen=True)
class ModelSpec:
    """Which benchmark Hamiltonian to build.

    ``kind`` is ``"tfim"`` (``sites`` qubits, field ``tfim_g``) or
    ``"hubbard1d"`` (``2 * sites`` qubits, hopping ``hubbard_t``,
    interaction ``hubbard_u``).  The couplings must be finite, and twice
    their Gershgorin bound on ``||H||`` a finite float, or ValueError.
    """

    kind: str
    sites: int
    tfim_g: float = 0.0
    hubbard_t: float = 0.0
    hubbard_u: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_PARAMS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.sites < 2:
            raise ValueError("need at least 2 sites")
        if not all(math.isfinite(x) for x in (self.tfim_g, self.hubbard_t, self.hubbard_u)):
            raise ValueError("model couplings must be finite")
        # Gershgorin: no row of H sums to more than this in absolute value. Twice it, the
        # width of the range that holds the spectrum, must be a float for the solve and the filter.
        if self.kind == "tfim":
            bound = (self.sites - 1) + self.sites * abs(self.tfim_g)
        else:
            bound = 2 * (self.sites - 1) * abs(self.hubbard_t) + self.sites * abs(self.hubbard_u) / 4
        if not math.isfinite(2 * bound):
            couplings = ", ".join(f"{key} = {value:g}" for key, value in self.params.items())
            raise ValueError(
                f"model coupling too large ({couplings}): twice its Gershgorin bound on ||H|| "
                "overflows the float range"
            )
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"{self.n_qubits} qubits exceeds the dense-storage ceiling of {MAX_QUBITS}"
            )

    @property
    def params(self) -> dict:
        """The couplings of this kind by config key, e.g. ``{"g": 1.2}``."""
        return {key: getattr(self, name) for key, name in MODEL_PARAMS[self.kind].items()}

    @property
    def n_qubits(self) -> int:
        return self.sites if self.kind == "tfim" else 2 * self.sites

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def hamiltonian(self) -> SparseOperator:
        if self.kind == "tfim":
            return build_tfim(self.sites, self.tfim_g)
        return build_hubbard_1d(self.sites, self.hubbard_t, self.hubbard_u)


def _bits(n_qubits: int) -> np.ndarray:
    """``bits[q, i]``: bit of qubit ``q`` in basis state ``i`` (qubit 0 leads)."""
    shifts = np.arange(n_qubits - 1, -1, -1)
    return (np.arange(2**n_qubits) >> shifts[:, None]) & 1


def _mask(n_qubits: int, *qubits: int) -> int:
    """Basis-index mask that flips ``qubits``."""
    return sum(1 << (n_qubits - 1 - q) for q in qubits)


def _hopping(bits: np.ndarray, p: int, q: int, coeff: float) -> tuple:
    """Terms of ``coeff (c^dag_p c_q + c^dag_q c_p)`` for modes ``p < q``."""
    moved = np.flatnonzero(bits[p] != bits[q])
    parity = bits[p + 1 : q, moved].sum(axis=0) & 1
    return moved ^ _mask(bits.shape[0], p, q), moved, coeff * (1 - 2 * parity)


def build_tfim(sites: int, g: float) -> SparseOperator:
    """Open-boundary transverse-field Ising chain on ``sites`` qubits."""
    if sites < 2:
        raise ValueError("TFIM needs at least 2 sites")
    if sites > MAX_QUBITS:
        raise ValueError(f"TFIM with {sites} sites exceeds dense-storage ceiling")
    z = 1 - 2 * _bits(sites)
    diag = np.zeros(2**sites)
    for i in range(sites - 1):
        diag -= z[i] * z[i + 1]
    states = np.arange(diag.size)
    flips = [(states ^ _mask(sites, i), states, np.full(diag.size, -g)) for i in range(sites)]
    return _terms(diag.size, [(states, states, diag), *flips])


def build_hubbard_1d(sites: int, t: float, u: float) -> SparseOperator:
    """Spinful 1-D Hubbard chain, open boundary, half-filling convention.

    ``H = -t sum_{j,s} (c^dag_{j,s} c_{j+1,s} + h.c.)
         + U sum_j (n_{j,up} - 1/2)(n_{j,dn} - 1/2)``
    """
    if sites < 2:
        raise ValueError("Hubbard chain needs at least 2 sites")
    n_modes = 2 * sites
    if n_modes > MAX_QUBITS:
        raise ValueError(
            f"Hubbard chain with {sites} sites needs {n_modes} qubits "
            f"(ceiling {MAX_QUBITS})"
        )
    bits = _bits(n_modes)
    hops = [
        _hopping(bits, 2 * j + s, 2 * (j + 1) + s, -t) for j in range(sites - 1) for s in (0, 1)
    ]
    half = bits - 0.5
    diag = np.zeros(bits.shape[1])
    for j in range(sites):
        diag += u * (half[2 * j] * half[2 * j + 1])
    states = np.arange(diag.size)
    return _terms(diag.size, [*hops, (states, states, diag)])


def coupling_operator(model: ModelSpec) -> SparseOperator:
    """The system-environment coupling used in the experiments.

    TFIM: ``A = Z`` on the first site.  Hubbard: the Hermitian hopping
    between sites 1 and 2 for both spins,
    ``A = sum_s (c^dag_{1,s} c_{2,s} - c_{1,s} c^dag_{2,s})
        = sum_s (c^dag_{1,s} c_{2,s} + c^dag_{2,s} c_{1,s})``.
    """
    bits = _bits(model.n_qubits)
    if model.kind == "tfim":
        states = np.arange(model.dim)
        return _terms(model.dim, [(states, states, 1 - 2 * bits[0])])
    return _terms(model.dim, [_hopping(bits, s, 2 + s, 1.0) for s in (0, 1)])
