import itertools

import numpy as np
import pytest

from lindbladprep.channel import invariant_blocks
from lindbladprep.linalg import HermitianOperator, hermitian_eig
from lindbladprep.models import (
    ModelSpec,
    SparseOperator,
    build_hubbard_1d,
    build_tfim,
    coupling_operator,
)

from conftest import PAULI_I, PAULI_X, PAULI_Z, pattern


def pauli_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def tfim_oracle(sites, g):
    """Hand-assembled Pauli sum, independent of the production builder."""
    dim = 2**sites
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(sites - 1):
        ops = [PAULI_I] * sites
        ops[i] = PAULI_Z
        ops[i + 1] = PAULI_Z
        h -= pauli_chain(ops)
    for i in range(sites):
        ops = [PAULI_I] * sites
        ops[i] = PAULI_X
        h -= g * pauli_chain(ops)
    return h


class TestTfim:
    def test_classical_ising(self):
        h = build_tfim(2, 0.0).dense()
        assert np.allclose(h.matrix, np.diag([-1.0, 1.0, 1.0, -1.0]))

    def test_matches_pauli_sum_oracle(self):
        assert np.allclose(build_tfim(2, 1.2).dense().matrix, tfim_oracle(2, 1.2), atol=1e-14)
        assert np.allclose(build_tfim(4, 1.2).dense().matrix, tfim_oracle(4, 1.2), atol=1e-14)

    def test_tfim4_ground_energy_oracle(self):
        spec = hermitian_eig(build_tfim(4, 1.2).dense())
        oracle = np.sort(np.linalg.eigvalsh(tfim_oracle(4, 1.2)))
        assert abs(spec.eigenvalues[0] - oracle[0]) <= 1e-10

    def test_spin_flip_symmetry(self):
        h = build_tfim(3, 0.7).dense().matrix
        flip = pauli_chain([PAULI_X] * 3)
        assert np.max(np.abs(flip @ h @ flip - h)) <= 1e-12

    @pytest.mark.parametrize("sites", range(2, 11))
    def test_bit_identical_to_kronecker_oracle(self, sites):
        """Every entry is a sum of exact +/-1 and +/-g terms, so the index
        construction and the Kronecker products agree bit for bit."""
        assert np.array_equal(build_tfim(sites, 1.2).dense().matrix, tfim_oracle(sites, 1.2))
        z_first = pauli_chain([PAULI_Z] + [PAULI_I] * (sites - 1))
        a = coupling_operator(ModelSpec("tfim", sites, tfim_g=1.2)).dense().matrix
        assert np.array_equal(a, z_first)

    def test_site_ceiling(self):
        with pytest.raises(ValueError):
            build_tfim(13, 1.0)
        with pytest.raises(ValueError):
            build_tfim(1, 1.0)


def jw_annihilation(mode: int, n_modes: int) -> np.ndarray:
    """Jordan-Wigner annihilation operator c_mode (|1> = occupied) as a
    Kronecker product, mode 0 the leading factor.  Real: every entry is 0
    or +/-1, and the real products below are as exact as complex ones."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
    ops = [PAULI_Z.real] * mode + [lower] + [PAULI_I.real] * (n_modes - mode - 1)
    return pauli_chain(ops)


def hubbard_modes(sites: int) -> list[np.ndarray]:
    return [jw_annihilation(q, 2 * sites) for q in range(2 * sites)]


def hubbard_oracle(sites, t, u):
    """Kronecker-product assembly of the Hubbard chain, summed in the
    builder's order."""
    cs = hubbard_modes(sites)
    eye = np.eye(cs[0].shape[0])
    h = np.zeros_like(cs[0])
    for j in range(sites - 1):
        for s in (0, 1):
            hop = cs[2 * j + s].T @ cs[2 * (j + 1) + s]
            h -= t * (hop + hop.T)
    for j in range(sites):
        n_up = cs[2 * j].T @ cs[2 * j]
        n_dn = cs[2 * j + 1].T @ cs[2 * j + 1]
        h += u * (n_up - eye / 2) @ (n_dn - eye / 2)
    return h


def hubbard_coupling_oracle(sites):
    """``sum_s (c^dag_{1,s} c_{2,s} - c_{1,s} c^dag_{2,s})`` from Kronecker
    products."""
    cs = hubbard_modes(sites)
    return sum(cs[s].T @ cs[2 + s] - cs[s] @ cs[2 + s].T for s in (0, 1))


def hubbard_number_operator(sites: int) -> HermitianOperator:
    """Total particle number, for symmetry checks."""
    cs = hubbard_modes(sites)
    n = sum(c.T @ c for c in cs)
    return HermitianOperator(n)


def hubbard_sz_operator(sites: int) -> HermitianOperator:
    """Total S_z = sum_j (n_up - n_dn)/2."""
    cs = hubbard_modes(sites)
    sz = np.zeros_like(cs[0])
    for j in range(sites):
        sz += (cs[2 * j].T @ cs[2 * j] - cs[2 * j + 1].T @ cs[2 * j + 1]) / 2
    return HermitianOperator(sz)


def free_fermion_spectrum(sites, t):
    """All many-body energies of the U=0 chain from single-particle modes."""
    hop = np.zeros((sites, sites))
    for j in range(sites - 1):
        hop[j, j + 1] = hop[j + 1, j] = -t
    single = np.linalg.eigvalsh(hop)
    modes = np.concatenate([single, single])  # two spin species
    energies = []
    for occ in itertools.product((0, 1), repeat=2 * sites):
        energies.append(float(np.dot(occ, modes)))
    return np.sort(energies)


class TestHubbard:
    def test_free_fermion_oracle(self):
        h = build_hubbard_1d(2, 1.0, 0.0).dense()
        spectrum = np.sort(np.linalg.eigvalsh(h.matrix))
        assert np.allclose(spectrum, free_fermion_spectrum(2, 1.0), atol=1e-10)

    def test_hopping_off_is_diagonal(self):
        h = build_hubbard_1d(2, 0.0, 4.0).dense().matrix
        assert np.max(np.abs(h - np.diag(np.diag(h)))) <= 1e-14
        # every diagonal entry is U * sum_j (n_up - 1/2)(n_dn - 1/2)
        diag = np.diag(h).real
        expect = []
        for occ in itertools.product((0, 1), repeat=4):
            # bit order: (1,up),(1,dn),(2,up),(2,dn); leading factor = mode 0
            val = 4.0 * ((occ[0] - 0.5) * (occ[1] - 0.5) + (occ[2] - 0.5) * (occ[3] - 0.5))
            expect.append(val)
        assert np.allclose(np.sort(diag), np.sort(expect))

    def test_symmetries(self):
        h = build_hubbard_1d(4, 1.0, 4.0).dense().matrix
        n = hubbard_number_operator(4).matrix
        sz = hubbard_sz_operator(4).matrix
        assert np.max(np.abs(h @ n - n @ h)) <= 1e-12
        assert np.max(np.abs(h @ sz - sz @ h)) <= 1e-12

    @pytest.mark.parametrize("sites", range(2, 6))
    def test_bit_identical_to_kronecker_oracle(self, sites):
        """Every entry is a sum of exact +/-1, +/-t and +/-U/4 terms, so the
        index construction and the Kronecker products agree bit for bit,
        Jordan-Wigner signs included.  U = 0.1 is not dyadic: three or more
        U/4 terms round, and agree only when summed in the same order."""
        h = build_hubbard_1d(sites, 0.3, 0.1).dense().matrix
        assert np.array_equal(h, hubbard_oracle(sites, 0.3, 0.1))
        a = coupling_operator(ModelSpec("hubbard1d", sites, hubbard_t=1.0, hubbard_u=4.0)).dense()
        assert np.array_equal(a.matrix, hubbard_coupling_oracle(sites))

    def test_qubit_ceiling(self):
        with pytest.raises(ValueError):
            build_hubbard_1d(7, 1.0, 1.0)


class TestCoupling:
    def test_tfim_z1(self):
        a = coupling_operator(ModelSpec("tfim", 2, tfim_g=1.0)).dense()
        assert np.allclose(a.matrix, np.diag([1, 1, -1, -1]))

    def test_hubbard_hermitian(self):
        a = coupling_operator(ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0)).dense()
        assert np.max(np.abs(a.matrix - a.matrix.conj().T)) <= 1e-14

    def test_hubbard_single_particle_sector_oracle(self):
        """A^2 restricted to one-particle states is the hopping square."""
        a = coupling_operator(ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0)).dense().matrix
        # one-particle basis states: modes 0..3 occupied alone; the JW basis
        # index with only mode q occupied is 2^(3-q) (mode 0 leads)
        idx = [2 ** (3 - q) for q in range(4)]
        a_sub = a[np.ix_(idx, idx)]
        # single-particle hopping between sites for each spin: modes (0,2), (1,3)
        oracle = np.zeros((4, 4))
        oracle[0, 2] = oracle[2, 0] = 1.0
        oracle[1, 3] = oracle[3, 1] = 1.0
        assert np.allclose(a_sub, oracle)
        assert np.allclose(a_sub @ a_sub, np.eye(4))


def dense_scan(*ops: HermitianOperator) -> list[np.ndarray]:
    """Breadth-first components of the joint dense ``!= 0`` pattern, an
    oracle for the partition of the sparse terms."""
    linked = np.logical_or.reduce([op.matrix != 0 for op in ops])
    unseen = np.ones(linked.shape[0], dtype=bool)
    blocks = []
    while unseen.any():
        block = np.zeros_like(unseen)
        frontier = block.copy()
        frontier[np.argmax(unseen)] = True
        while frontier.any():
            block |= frontier
            frontier = linked[frontier].any(axis=0) & ~block
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


PARTITIONED = [ModelSpec("hubbard1d", s, hubbard_t=1.0, hubbard_u=4.0) for s in range(2, 6)] + [
    ModelSpec("tfim", s, tfim_g=1.2) for s in range(2, 7)
]


class TestInvariantBlocks:
    @pytest.mark.parametrize("model", PARTITIONED, ids=lambda m: f"{m.kind}{m.sites}")
    def test_sparse_partition_matches_the_dense_scan(self, model):
        """The terms' pattern is the dense ``!= 0`` pattern, their components
        are the dense scan's, and each block is the dense restriction."""
        ops = model.hamiltonian(), coupling_operator(model)
        dense = [op.dense() for op in ops]
        for op, full in zip(ops, dense):
            assert np.array_equal(pattern(op), full.matrix != 0)
        blocks = invariant_blocks(*ops)
        assert [b.tolist() for b in blocks] == [b.tolist() for b in dense_scan(*dense)]
        for idx in blocks:
            for op, full in zip(ops, dense):
                assert np.array_equal(op.dense(idx).matrix, full.matrix[np.ix_(idx, idx)])

    def test_dense_refuses_an_index_set_that_a_term_leaves(self):
        model = ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0)
        h = model.hamiltonian()
        largest = max(invariant_blocks(h, coupling_operator(model)), key=len)
        with pytest.raises(ValueError, match="links the index set"):
            h.dense(largest[:-1])

    @pytest.mark.parametrize("sites, count, largest", [(2, 9, 4), (4, 25, 36)])
    def test_hubbard_blocks_are_number_and_sz_sectors(self, sites, count, largest):
        model = ModelSpec("hubbard1d", sites, hubbard_t=1.0, hubbard_u=4.0)
        blocks = invariant_blocks(model.hamiltonian(), coupling_operator(model))
        # both operators are diagonal in the occupation basis
        n = np.diag(hubbard_number_operator(sites).matrix).real
        sz = np.diag(hubbard_sz_operator(sites).matrix).real
        sectors = {}
        for i, key in enumerate(zip(n, sz)):
            sectors.setdefault(key, []).append(i)
        assert sorted(map(tuple, blocks)) == sorted(map(tuple, sectors.values()))
        assert len(blocks) == count
        assert max(b.size for b in blocks) == largest

    def test_tfim_is_one_block(self):
        model = ModelSpec("tfim", 4, tfim_g=1.2)
        blocks = invariant_blocks(model.hamiltonian(), coupling_operator(model))
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], np.arange(16))

    def test_tiny_entry_merges_two_blocks(self):
        model = ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0)
        h, a = model.hamiltonian(), coupling_operator(model)
        blocks = invariant_blocks(h, a)
        i, j = blocks[1][0], blocks[2][-1]
        # two more terms, the pair (i, j) and (j, i): the pattern has no tolerance
        tiny = [1e-300, 1e-300]
        linked = SparseOperator(
            h.dim, np.append(h.rows, [i, j]), np.append(h.cols, [j, i]), np.append(h.vals, tiny)
        )
        merged = invariant_blocks(linked, a)
        assert len(merged) == len(blocks) - 1
        union = tuple(np.union1d(blocks[1], blocks[2]))
        assert union in set(map(tuple, merged))


class TestModelSpec:
    def test_qubit_counts(self):
        assert ModelSpec("tfim", 4, tfim_g=1.0).n_qubits == 4
        assert ModelSpec("hubbard1d", 4, hubbard_t=1, hubbard_u=4).n_qubits == 8

    def test_params_by_config_key(self):
        assert ModelSpec("tfim", 4, tfim_g=1.2).params == {"g": 1.2}
        assert ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0).params == {"t": 1.0, "u": 4.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("xy", 4)
        with pytest.raises(ValueError):
            ModelSpec("tfim", 1, tfim_g=1.0)
        with pytest.raises(ValueError):
            ModelSpec("hubbard1d", 7, hubbard_t=1, hubbard_u=1)
