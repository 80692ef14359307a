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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator

__all__ = [
    "ModelSpec",
    "build_tfim",
    "build_hubbard_1d",
    "coupling_operator",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Dense storage ceiling: 12 qubits = 4096 x 4096.
MAX_QUBITS = 12


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
        if self.kind not in ("tfim", "hubbard1d"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.sites < 2:
            raise ValueError("need at least 2 sites")
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"{self.n_qubits} qubits exceeds the dense-storage ceiling of {MAX_QUBITS}"
            )

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


def _embed(op: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    """Place a single-qubit operator at tensor position ``site`` (0-based)."""
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n_qubits - site - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def build_tfim(sites: int, g: float) -> HermitianOperator:
    """Open-boundary transverse-field Ising chain on ``sites`` qubits."""
    if sites < 2:
        raise ValueError("TFIM needs at least 2 sites")
    if sites > MAX_QUBITS:
        raise ValueError(f"TFIM with {sites} sites exceeds dense-storage ceiling")
    dim = 2**sites
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(sites - 1):
        h -= _embed(PAULI_Z, i, sites) @ _embed(PAULI_Z, i + 1, sites)
    for i in range(sites):
        h -= g * _embed(PAULI_X, i, sites)
    return HermitianOperator(h)


def _jw_annihilation(mode: int, n_modes: int) -> np.ndarray:
    """Jordan-Wigner annihilation operator c_mode (|1> = occupied)."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    ops = [PAULI_Z] * mode + [lower] + [PAULI_I] * (n_modes - mode - 1)
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _hubbard_modes(sites: int) -> list[np.ndarray]:
    n_modes = 2 * sites
    if n_modes > MAX_QUBITS:
        raise ValueError(
            f"Hubbard chain with {sites} sites needs {n_modes} qubits "
            f"(ceiling {MAX_QUBITS})"
        )
    return [_jw_annihilation(q, n_modes) for q in range(n_modes)]


def build_hubbard_1d(sites: int, t: float, u: float) -> HermitianOperator:
    """Spinful 1-D Hubbard chain, open boundary, half-filling convention.

    ``H = -t sum_{j,s} (c^dag_{j,s} c_{j+1,s} + h.c.)
         + U sum_j (n_{j,up} - 1/2)(n_{j,dn} - 1/2)``
    """
    if sites < 2:
        raise ValueError("Hubbard chain needs at least 2 sites")
    cs = _hubbard_modes(sites)
    dim = cs[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    h = np.zeros((dim, dim), dtype=complex)
    for j in range(sites - 1):
        for s in (0, 1):
            q, qn = 2 * j + s, 2 * (j + 1) + s
            hop = cs[q].conj().T @ cs[qn]
            h -= t * (hop + hop.conj().T)
    for j in range(sites):
        n_up = cs[2 * j].conj().T @ cs[2 * j]
        n_dn = cs[2 * j + 1].conj().T @ cs[2 * j + 1]
        h += u * (n_up - eye / 2) @ (n_dn - eye / 2)
    return HermitianOperator(h)


def coupling_operator(model: ModelSpec) -> HermitianOperator:
    """The system-environment coupling used in the experiments.

    TFIM: ``A = Z`` on the first site.  Hubbard: the Hermitian hopping
    between sites 1 and 2 for both spins,
    ``A = sum_s (c^dag_{1,s} c_{2,s} - c_{1,s} c^dag_{2,s})``.
    """
    if model.kind == "tfim":
        return HermitianOperator(_embed(PAULI_Z, 0, model.sites))
    cs = _hubbard_modes(model.sites)
    a = np.zeros_like(cs[0])
    for s in (0, 1):
        q1, q2 = s, 2 + s
        a += cs[q1].conj().T @ cs[q2] - cs[q1] @ cs[q2].conj().T
    return HermitianOperator(a)
