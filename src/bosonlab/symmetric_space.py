"""Occupation-number coordinates for the permutation-symmetric subspace.

N bosons on d modes live in the span of occupation vectors (n_1 .. n_d),
sum n_i = N, of dimension binomial(N+d-1, d-1).  Operators are assembled in
second-quantized form: a symmetric sum of an order-m interaction over all
m-subsets of particles equals

    (1/m!) sum_{i_vec, j_vec} <i_vec|V|j_vec> a+_{i_1}..a+_{i_m} a_{j_1}..a_{j_m}

restricted to the fixed-N sector, which the kernels evaluate by walking
occupation tuples with the ladder square-root factors into sparse (row, col,
value) triples: no d^N object and no D x D array is ever materialized.
Basis order is lexicographically descending and deterministic, so operators
built from equal inputs are bit-identical.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import decode_digits, mbody_triples, rdm_matrix
from .hartree import DensityMatrix

# Desk-scale guards, checked before allocating: states in a basis, and bytes
# of operator triples.  An order-m term yields at most D * d^(2m) entries of
# 32 bytes (int64 row and col, complex128 value); hermitization doubles them.
MAX_BASIS_SIZE = 2_000_000
MAX_TRIPLE_BYTES = 2**30
_BYTES_PER_ENTRY = 2 * 32


@dataclass(frozen=True, eq=False)
class OccupationBasis:
    """Deterministically ordered occupation basis of the fixed-N sector."""

    d: int
    n_particles: int
    vectors: np.ndarray  # (size, d) int64, lexicographically descending
    keys_ascending: np.ndarray = field(repr=False)
    positions_ascending: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.vectors.shape[0]

    def index_of(self, occupation):
        occ = np.asarray(occupation, dtype=np.int64)
        if occ.shape != (self.d,) or occ.min() < 0 or occ.sum() != self.n_particles:
            raise KeyError(f"{occupation!r} is not an occupation of this sector")
        key = int(occ @ (self.n_particles + 1) ** np.arange(self.d - 1, -1, -1, dtype=np.int64))
        pos = int(np.searchsorted(self.keys_ascending, key))
        return int(self.positions_ascending[pos])


def _compositions_desc(total, parts):
    # descending lexicographic enumeration of (n_1 .. n_parts), sum = total
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


def enumerate_basis(d, n_particles):
    """All occupation vectors of the sector, lexicographically descending."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    size = math.comb(n_particles + d - 1, d - 1)
    if size > MAX_BASIS_SIZE:
        raise ValueError(
            f"symmetric basis would hold {size} states (> {MAX_BASIS_SIZE}); "
            "refusing to enumerate"
        )
    if (n_particles + 1) ** d >= 2**62:
        raise ValueError("occupation keys would overflow int64; sector too large")
    vectors = np.fromiter(
        (x for occ in _compositions_desc(n_particles, d) for x in occ),
        dtype=np.int64,
        count=size * d,
    ).reshape(size, d)
    powers = (n_particles + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
    keys = vectors @ powers  # strictly descending by construction
    keys_ascending = keys[::-1].copy()
    positions_ascending = np.arange(size - 1, -1, -1, dtype=np.int64)
    vectors.setflags(write=False)
    keys_ascending.setflags(write=False)
    positions_ascending.setflags(write=False)
    return OccupationBasis(d, n_particles, vectors, keys_ascending, positions_ascending)


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Unit vector over an occupation basis."""

    basis: OccupationBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.basis.size:
            raise ValueError(
                f"amplitude length {amps.size} does not match basis size {self.basis.size}"
            )
        dev = abs(np.linalg.norm(amps) - 1.0)
        if not dev <= 1e-10:
            raise ValueError(f"state norm deviates from 1 by {dev:.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def embed_product_state(phi, n_particles):
    """The N-fold product of a single-particle state, in occupation coordinates.

    Amplitude on (n_1 .. n_d) is sqrt(N!/prod n_i!) * prod phi_i^{n_i};
    multinomials are computed as exact integers before the square root.
    """
    v = np.asarray(phi, dtype=np.complex128).reshape(-1)
    dev = abs(np.linalg.norm(v) - 1.0)
    if not dev <= 1e-10:
        raise ValueError(f"phi norm deviates from 1 by {dev:.3e}")
    basis = enumerate_basis(v.size, n_particles)
    sqrt_mult = np.empty(basis.size, dtype=np.float64)
    for i, occ in enumerate(basis.vectors):
        mult = 1
        running = 0
        for n in occ:
            running += int(n)
            mult *= math.comb(running, int(n))
        sqrt_mult[i] = math.sqrt(mult)
    amps = sqrt_mult * np.prod(v[None, :] ** basis.vectors, axis=1)
    return SymmetricState(basis, amps)


@dataclass(frozen=True, eq=False)
class SparseHermitian:
    """Hermitian D x D matrix as unique (row, col, value) triples sorted by
    (row, col).  ``np.asarray`` gives the dense matrix, for checks at small D."""

    size: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.rows * self.size + self.cols) <= 0):
            raise ValueError("triples must be unique and sorted by (row, col)")
        for a in (self.rows, self.cols, self.values):
            a.setflags(write=False)
        # first entry of each non-empty row, for the row sums of matvec
        object.__setattr__(self, "_row_starts", np.flatnonzero(np.diff(self.rows, prepend=-1)))

    @classmethod
    def from_triples(cls, size, rows, cols, values):
        """(A + A^dagger)/2 for the A whose entries are the sums of the
        values given at each (row, col)."""
        keys = np.concatenate([rows * size + cols, cols * size + rows])
        values = np.concatenate([values, values.conj()]) / 2
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        keys = keys[starts]
        return cls(size, keys // size, keys % size, np.add.reduceat(values[order], starts))

    @property
    def shape(self):
        return (self.size, self.size)

    @property
    def nnz(self):
        return self.values.size

    def matvec(self, x):
        out = np.zeros(self.size, dtype=np.complex128)
        starts = self._row_starts
        out[self.rows[starts]] = np.add.reduceat(self.values * x[self.cols], starts)
        return out

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape, dtype=np.complex128)
        out[self.rows, self.cols] = self.values
        return out if dtype is None else out.astype(dtype)


def _assemble(basis, weighted_terms):
    """Sum of prefactor * (symmetric sum of term) over (term, prefactor) pairs."""
    d = basis.d
    for term, _ in weighted_terms:
        if term.order > basis.n_particles:
            raise ValueError("interaction order exceeds particle number")
        if term.matrix.shape[0] != d**term.order:
            raise ValueError(
                f"potential dimension {term.matrix.shape[0]} does not match "
                f"d^m = {d**term.order}"
            )
    nbytes = _BYTES_PER_ENTRY * basis.size * sum(d ** (2 * t.order) for t, _ in weighted_terms)
    if nbytes > MAX_TRIPLE_BYTES:
        raise ValueError(f"triples could take {nbytes} bytes (> {MAX_TRIPLE_BYTES}); refusing")
    base = np.int64(basis.n_particles + 1)
    walk = (basis.vectors, basis.keys_ascending, basis.positions_ascending, base)
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.complex128))]
    for term, prefactor in weighted_terms:
        vmat = np.ascontiguousarray(term.matrix, dtype=np.complex128)
        scale = float(prefactor) / math.factorial(term.order)
        parts.append(mbody_triples(*walk, vmat, decode_digits(d, term.order), scale))
    rows, cols, values = (np.concatenate(p) for p in zip(*parts))
    return SparseHermitian.from_triples(basis.size, rows, cols, values)


def build_symmetric_operator(term, basis, prefactor):
    """prefactor * sum over all m-subsets of particles of the interaction,
    as an explicitly symmetrized :class:`SparseHermitian` on the basis."""
    return _assemble(basis, [(term, prefactor)])


def build_hamiltonian(spec, n_particles, basis=None):
    """Full fixed-N Hamiltonian: order-m terms carry the 1/N^(m-1) prefactor."""
    if basis is None:
        basis = enumerate_basis(spec.d, n_particles)
    elif basis.d != spec.d or basis.n_particles != n_particles:
        raise ValueError("basis does not match spec / particle number")
    prefactors = {m: 1.0 if m == 1 else float(n_particles) ** (1 - m) for m in spec.present_orders}
    return _assemble(basis, [(spec.terms[m], pre) for m, pre in prefactors.items()])


def rdm(state, k):
    """k-particle reduced density matrix of a symmetric state.

    Entry ((a_1..a_k),(b_1..b_k)) is (N-k)!/N! times the normal-ordered
    expectation <a+_{b_1}..a+_{b_k} a_{a_1}..a_{a_k}>.  Every entry is
    evaluated at the sorted representative of its index tuples, which makes
    slot-permuted entries bit-identical (ladder chains commute, so all
    orderings agree exactly in exact arithmetic).
    """
    basis = state.basis
    n = basis.n_particles
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k = {k} exceeds the particle number {n}")
    falling = 1
    for q in range(k):
        falling *= n - q
    digits = np.sort(decode_digits(basis.d, k), axis=1)
    gamma = rdm_matrix(
        basis.vectors,
        basis.keys_ascending,
        basis.positions_ascending,
        np.int64(n + 1),
        np.ascontiguousarray(state.amplitudes),
        np.ascontiguousarray(digits),
        1.0 / falling,
    )
    gamma = (gamma + gamma.conj().T) / 2
    return DensityMatrix(order=k, d=basis.d, matrix=gamma)
