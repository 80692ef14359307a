"""Benchmark Hamiltonians and their coupling operators.

Two families are provided as dense matrices:

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

Every operator here is filled straight from the table of these bits
(:func:`_bits`, ``n x 2^n`` small integers), never from Kronecker
products.  Diagonal terms (``Z_i Z_{i+1}``, ``Z_1``, the Hubbard
interaction) are sums over the table.  Off-diagonal terms flip a fixed set
of bits, so each is one scatter of its coefficient to ``(i ^ mask, i)``:
``X_q`` flips bit ``q`` of every state, and the hopping
``c^dag_p c_q + c^dag_q c_p`` flips modes ``p < q`` of the states where
they differ, with the Jordan-Wigner sign ``(-1)`` to the number of
occupied modes strictly between ``p`` and ``q``.  Each entry receives the
same exact ``+/-1``, ``+/-t``, ``+/-g`` or ``+/-U/4`` terms, in the same
order, as the Kronecker-product sums, so the matrices agree bit for bit;
the only ``dim x dim`` array is the returned one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator

__all__ = [
    "MODEL_PARAMS",
    "ModelSpec",
    "build_tfim",
    "build_hubbard_1d",
    "coupling_operator",
]

# Dense storage ceiling: 12 qubits = 4096 x 4096.
MAX_QUBITS = 12

# The couplings of each model kind: config key (and CLI flag) -> ModelSpec field.
MODEL_PARAMS = {"tfim": {"g": "tfim_g"}, "hubbard1d": {"t": "hubbard_t", "u": "hubbard_u"}}


@dataclass(frozen=True)
class ModelSpec:
    """Which benchmark Hamiltonian to build.

    ``kind`` is ``"tfim"`` (``sites`` qubits, field ``tfim_g``) or
    ``"hubbard1d"`` (``2 * sites`` qubits, hopping ``hubbard_t``,
    interaction ``hubbard_u``).
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

    def hamiltonian(self) -> HermitianOperator:
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


def _add_hopping(out: np.ndarray, bits: np.ndarray, p: int, q: int, coeff: float) -> None:
    """``out += coeff (c^dag_p c_q + c^dag_q c_p)`` for modes ``p < q``."""
    moved = np.flatnonzero(bits[p] != bits[q])
    parity = bits[p + 1 : q, moved].sum(axis=0) & 1
    out[moved ^ _mask(bits.shape[0], p, q), moved] += coeff * (1 - 2 * parity)


def build_tfim(sites: int, g: float) -> HermitianOperator:
    """Open-boundary transverse-field Ising chain on ``sites`` qubits."""
    if sites < 2:
        raise ValueError("TFIM needs at least 2 sites")
    if sites > MAX_QUBITS:
        raise ValueError(f"TFIM with {sites} sites exceeds dense-storage ceiling")
    z = 1 - 2 * _bits(sites)
    diag = np.zeros(2**sites)
    for i in range(sites - 1):
        diag -= z[i] * z[i + 1]
    h = np.zeros((diag.size, diag.size), dtype=complex)
    np.fill_diagonal(h, diag)
    states = np.arange(diag.size)
    for i in range(sites):
        h[states ^ _mask(sites, i), states] -= g
    return HermitianOperator(h)


def build_hubbard_1d(sites: int, t: float, u: float) -> HermitianOperator:
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
    h = np.zeros((bits.shape[1], bits.shape[1]), dtype=complex)
    for j in range(sites - 1):
        for s in (0, 1):
            _add_hopping(h, bits, 2 * j + s, 2 * (j + 1) + s, -t)
    half = bits - 0.5
    diag = np.zeros(bits.shape[1])
    for j in range(sites):
        diag += u * (half[2 * j] * half[2 * j + 1])
    np.fill_diagonal(h, diag)
    return HermitianOperator(h)


def coupling_operator(model: ModelSpec) -> HermitianOperator:
    """The system-environment coupling used in the experiments.

    TFIM: ``A = Z`` on the first site.  Hubbard: the Hermitian hopping
    between sites 1 and 2 for both spins,
    ``A = sum_s (c^dag_{1,s} c_{2,s} - c_{1,s} c^dag_{2,s})
        = sum_s (c^dag_{1,s} c_{2,s} + c^dag_{2,s} c_{1,s})``.
    """
    bits = _bits(model.n_qubits)
    a = np.zeros((model.dim, model.dim), dtype=complex)
    if model.kind == "tfim":
        np.fill_diagonal(a, 1 - 2 * bits[0])
    else:
        for s in (0, 1):
            _add_hopping(a, bits, s, 2 + s, 1.0)
    return HermitianOperator(a)
