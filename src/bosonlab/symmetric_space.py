"""Occupation-number coordinates for the permutation-symmetric subspace.

N bosons on d modes live in the span of occupation vectors (n_1 .. n_d),
sum n_i = N, of dimension binomial(N+d-1, d-1).  Operators are assembled in
second-quantized form: a symmetric sum of an order-m interaction over all
m-subsets of particles equals

    (1/m!) sum_{i_vec, j_vec} <i_vec|V|j_vec> a+_{i_1}..a+_{i_m} a_{j_1}..a_{j_m}

restricted to the fixed-N sector.  Creators commute with creators and
annihilators with annihilators, so the chain depends only on the sorted
index multisets I, J, and the sum runs over multiset pairs with the
orbit-summed weight sum_{i_vec in I, j_vec in J} <i_vec|V|j_vec>.  One ladder
walk (:func:`ladder_walk`) applies the chains a+_I a_J to every occupation
vector at once, one J and all I per step; :func:`build_hamiltonian` writes
each chain into its move's slot of the fixed-width rows of a
:class:`SparseHermitian`, the diagonal first.  The walk depends
only on the basis and k, so the basis compiles it once per order
(:meth:`OccupationBasis.walk`) and every k-RDM of that N contracts its state
against it, evaluating each multiset pair once and scattering it to all
index tuples of the orbit: ``configs/corr.json`` compiles 3 order-2 walks
(one per N) and contracts 9 states.  No d^N object and no D x D array is
ever materialized.  Basis order is lexicographically descending and
deterministic, so operators built from equal inputs are bit-identical.
"""

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, combinations_with_replacement

import numpy as np

from ._limits import (MAX_BASIS_SIZE, MAX_DENSE_BYTES, MAX_OPERATOR_BYTES, MAX_WALK_BYTES,
                      _dense_peak_bytes, refuse)
from .hartree import DENSITY_ATOL, DensityMatrix

# The (D, 1 + moves) grid of 24-byte cells, 1 + moves <= sum_m C(d+m-1, m)^2, is H's rows;
# with its hermitization build_hamiltonian peaks at 60 bytes an operator_entries entry or
# less (tracemalloc, d = 2 to 8, orders up to 3, from 2e4 entries; 85 below); 128 charged.
_BYTES_PER_ENTRY = 128


def sector_size(d, n_particles):
    """States of the fixed-N sector, C(N+d-1, d-1); none below N = 0."""
    return math.comb(n_particles + d - 1, d - 1) if n_particles >= 0 else 0


def operator_entries(d, n_particles, orders):
    """At most D * sum_m C(d+m-1, m)^2 entries in an operator with terms of
    these orders: each chain a+_I a_J maps a state to at most one.  At least
    D, as every diagonal is stored, even without terms."""
    return sector_size(d, n_particles) * max(1, sum(math.comb(d + m - 1, m) ** 2 for m in orders))


def walk_bytes(d, n_particles, k):
    """Bytes of the compiled order-k walk: each J leaves D(N-k) states, and an
    int32 row, a float64 factor and at most an int32 col each take 16."""
    return 16 * math.comb(d + k - 1, k) ** 2 * sector_size(d, n_particles - k)


@dataclass(frozen=True, eq=False)
class OccupationBasis:
    """Deterministically ordered occupation basis of the fixed-N sector."""

    d: int
    n_particles: int
    vectors: np.ndarray  # (size, d) int64, lexicographically descending
    keys_ascending: np.ndarray = field(repr=False)
    _walks: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def size(self):
        return self.vectors.shape[0]

    def walk(self, k):
        """The order-k ladder walk (:func:`ladder_walk`) with int32 rows and
        cols, compiled on first use and kept as long as the basis lives."""
        if k not in self._walks:
            self._walks[k] = _compile_walk(self, k)
        return self._walks[k]


def _key_powers(d, n_particles):
    return (n_particles + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)


def enumerate_basis(d, n_particles):
    """All occupation vectors of the sector, lexicographically descending."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    size = refuse(lambda n: sector_size(d, n), n_particles, MAX_BASIS_SIZE,
                  "refusing to enumerate C(N+d-1, d-1) states", f"N for d={d}")
    if (n_particles + 1) ** d >= 2**62:
        raise ValueError("occupation keys would overflow int64; sector too large")
    # stars and bars: N stars and d - 1 bars in N + d - 1 places, n_i the stars
    # between bars i - 1 and i; ascending bar positions give ascending vectors.
    # combinations copies its pool, N places at d = 1, where no bar needs one
    places = range(n_particles + d - 1) if d > 1 else ()
    bars = np.fromiter(chain.from_iterable(combinations(places, d - 1)),
                       dtype=np.int64, count=size * (d - 1)).reshape(size, d - 1)
    vectors = np.diff(bars[::-1], axis=1, prepend=-1, append=n_particles + d - 1) - 1
    keys = vectors @ _key_powers(d, n_particles)  # strictly descending by construction
    keys_ascending = keys[::-1].copy()
    vectors.setflags(write=False)
    keys_ascending.setflags(write=False)
    return OccupationBasis(d, n_particles, vectors, keys_ascending)


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
        if not dev <= DENSITY_ATOL:
            raise ValueError(f"state norm deviates from 1 by {dev:.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def embed_product_state(phi, n_particles):
    """The N-fold product of a single-particle state, in occupation coordinates.

    Amplitude on (n_1 .. n_d) is sqrt(N!/prod n_i!) * prod phi_i^{n_i}.  The
    magnitude is taken in log space, 0.5 (lgamma(N+1) - sum lgamma(n_i+1)) +
    sum n_i log|phi_i|, and the phase prod (phi_i/|phi_i|)^{n_i} apart, so no
    multinomial overflows at large N; a zero phi_i with n_i > 0 gives 0.
    The magnitudes are renormalized once: their rounding passes 1e-10 at large N.
    """
    v = np.asarray(phi, dtype=np.complex128).reshape(-1)
    dev = abs(np.linalg.norm(v) - 1.0)
    if not dev <= DENSITY_ATOL:
        raise ValueError(f"phi norm deviates from 1 by {dev:.3e}")
    basis = enumerate_basis(v.size, n_particles)
    occ = basis.vectors
    # lgamma of the occupations present only: at d = 1 they are just N
    present, at = np.unique(occ, return_inverse=True)
    log_factorial = np.array([math.lgamma(q + 1) for q in present.tolist()])
    magnitude = np.abs(v)
    nonzero = magnitude > 0
    log_amp = 0.5 * (math.lgamma(n_particles + 1)
                     - log_factorial[at.reshape(occ.shape)].sum(axis=1))
    log_amp += occ[:, nonzero] @ np.log(magnitude[nonzero])
    log_amp[occ[:, ~nonzero].any(axis=1)] = -np.inf
    magnitude = np.exp(log_amp)
    magnitude /= np.linalg.norm(magnitude)
    return SymmetricState(basis, magnitude * np.exp(1j * (occ @ np.angle(v))))


@dataclass(frozen=True, eq=False)
class SparseHermitian:
    """Hermitian D x D matrix as fixed-width rows: ``cols`` and ``values`` are
    (D, w) arrays whose slot 0 holds each row's diagonal, stored even when 0;
    a slot that a row does not use holds (its own index, 0).  ``np.asarray``
    gives the dense matrix, for checks at small D."""

    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.cols.ndim != 2 or self.cols.shape != self.values.shape or not self.cols.shape[1]:
            raise ValueError("cols and values must be (D, w) arrays of one shape, w >= 1")
        if not np.array_equal(self.cols[:, 0], np.arange(len(self.cols))):
            raise ValueError("slot 0 of each row must be its diagonal")
        for a in (self.cols, self.values):
            a.setflags(write=False)

    @property
    def shape(self):
        return (len(self.cols),) * 2

    @property
    def nnz(self):
        """Stored entries: every diagonal and the off-diagonal entries, not the padding."""
        return len(self.cols) + int(np.count_nonzero(self.cols[:, 1:] != self.cols[:, :1]))

    def matvec(self, x):
        return np.einsum("ij,ij->i", self.values, x[self.cols])

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape, dtype=np.complex128)
        np.add.at(out, (np.arange(len(out))[:, None], self.cols), self.values)  # padding adds 0
        return out if dtype is None else out.astype(dtype)


def multiset_map(d, k):
    """Sorted index multisets of size k over d modes, and each linear index's multiset.

    Returns the multisets in ``combinations_with_replacement`` order and, for
    every linear index ``lin = sum_s i_s d^(k-1-s)`` of a k-slot tensor, the
    position of the multiset of its digits (i_1 .. i_k) in that list."""
    multisets = list(combinations_with_replacement(range(d), k))
    powers = d ** np.arange(k - 1, -1, -1, dtype=np.int64)
    digits = np.stack(np.unravel_index(np.arange(d**k), (d,) * k), axis=1)
    # base-d codes of sorted digits ascend in combinations_with_replacement order
    codes = np.array(multisets) @ powers
    return multisets, np.searchsorted(codes, np.sort(digits, axis=1) @ powers)


def ladder_walk(basis, k):
    """Every ladder chain a+_I a_J over sorted index multisets I, J of size k,
    one annihilated multiset J at a time, for all creation multisets I at once.

    Yields ``(j, rows, cols, factor)``, j the position of J in
    :func:`multiset_map` order, such that a+_I a_J |cols> = factor[i] |rows[i]>
    elementwise for the I at position i; basis states that a_J annihilates
    are left out, and a J that annihilates every state yields nothing.
    a+_I a_J moves an occupation's key by key(I) - key(J), so all rows take
    one binary search; each factor is the product, slot by slot in the order
    of the chain, of the occupations the ladder operators meet."""
    multisets = list(combinations_with_replacement(range(basis.d), k))
    modes = np.array(multisets, dtype=np.int64).reshape(len(multisets), k)
    # slot s of a multiset meets the (r_s)-th copy of its mode, r_s = copies in slots 0..s
    repeats = ((modes[:, :, None] == modes[:, None, :]) & np.tri(k, dtype=bool)).sum(axis=2)
    counts = (modes[:, :, None] == np.arange(basis.d)).sum(axis=1)
    shifts = counts @ _key_powers(basis.d, basis.n_particles)
    keys = basis.keys_ascending[::-1]  # of the states, in basis order
    for j in range(len(multisets)):
        f_ann = np.ones(basis.size)
        for mode, r in zip(modes[j], repeats[j]):
            f_ann *= basis.vectors[:, mode] - (r - 1)
        cols = np.flatnonzero(f_ann > 0)
        if not cols.size:
            continue
        left = (basis.vectors[cols] - counts[j]).T  # (d, L) occupations after a_J
        f_cre = np.ones((len(multisets), cols.size))
        for s in range(k):
            f_cre *= left[modes[:, s]] + repeats[:, s, None]
        rows = basis.size - 1 - np.searchsorted(
            basis.keys_ascending, keys[cols] + (shifts - shifts[j])[:, None]
        )
        yield j, rows, cols, np.sqrt(f_ann[cols] * f_cre)


def _compile_walk(basis, k):
    """ladder_walk(basis, k) as a list, rows and cols as int32; refused, before
    anything is built, past MAX_WALK_BYTES."""
    refuse(lambda n: walk_bytes(basis.d, n, k), basis.n_particles, MAX_WALK_BYTES,
           f"the order-{k} ladder walk's 16 * C(d+k-1, k)^2 * D(N-k) bytes", f"N for d={basis.d}")
    return [
        (j, rows.astype(np.int32), cols.astype(np.int32), factor)
        for j, rows, cols, factor in ladder_walk(basis, k)
    ]


def build_hamiltonian(spec, n_particles, basis=None):
    """Full fixed-N Hamiltonian: the symmetric sum of each order-m term, weighted 1/N^(m-1).

    Keys are unique and a+_I a_J moves each by key(I) - key(J): a row meets one column per
    move, so each kept pair writes into its move's slot, and one J's pairs never collide.
    The hermitized grid is H's rows: slot 0 the diagonal, each slot s >= 1 one move for
    every row, and (own index, 0) in a row that no column reaches by that move."""
    if basis is None:
        basis = enumerate_basis(spec.d, n_particles)
    elif basis.d != spec.d or basis.n_particles != n_particles:
        raise ValueError("basis does not match spec / particle number")
    if spec.max_order > n_particles:
        raise ValueError("interaction order exceeds particle number")
    d, size, orders = spec.d, basis.size, list(spec.present_orders)
    refuse(lambda n: _BYTES_PER_ENTRY * operator_entries(d, n, orders), n_particles,
           MAX_OPERATOR_BYTES, "operator rows' 128 * D * sum_m C(d+m-1, m)^2 bytes",
           f"N for d={d} and orders {orders}")
    chains = []
    for m in orders:
        multisets, index = multiset_map(d, m)
        weights = np.zeros((len(multisets), len(multisets)), dtype=np.complex128)
        np.add.at(weights, (index[:, None], index[None, :]), spec.terms[m])
        weights *= float(n_particles) ** (1 - m) / math.factorial(m)
        keys = _key_powers(d, n_particles)[np.array(multisets)].sum(axis=1)
        chains.append((m, weights, (weights != 0) | (weights.T != 0), keys[:, None] - keys))
    # keep is symmetric, so the moves lie symmetric about 0: slot 0 holds no move, the
    # diagonal, and slot 1 + i moves[i], ascending with the column (a set, as a plain
    # np.unique imports numpy.ma on first use, 10-17 ms)
    moves = np.array(sorted(set().union(*(mv[k].tolist() for *_, k, mv in chains)) - {0}), np.int64)
    width = 1 + moves.size
    cols = np.repeat(np.arange(size), width)  # the grid, flat; a slot never written keeps its row
    values = np.zeros(cols.size, dtype=np.complex128)
    for m, weights, keep, move in chains:
        slots = np.where(move == 0, 0, 1 + np.searchsorted(moves, move))
        for j, rows, walk_cols, factor in ladder_walk(basis, m):
            flat = rows[keep[j]] * width + slots[keep[j], j][:, None]
            cols[flat] = walk_cols
            values[flat] += weights[keep[j], j][:, None] * factor[keep[j]]
    cols = cols.reshape(size, width)
    stored = (cols != np.arange(size)[:, None]) | (np.arange(width) == 0)
    # an entry's transpose is in its column's row at the reverse move, slot 1 + i's
    # being width - 1 - i; (a + conj b)/2 and (b + conj a)/2 are exact conjugates, and
    # padding, whose transpose is a cell of its own row, stays 0
    transpose = cols * width + np.r_[0, width - 1:0:-1]
    values = np.where(stored, (values[transpose].conj() + values.reshape(size, width)) / 2, 0)
    return SparseHermitian(cols, values)


def _walk_rdm(state, k, ket):
    """The walk behind rdm, with ket in place of the state's own amplitudes:
    scale * <state| a+_b a_a |ket> at ((a_1..a_k),(b_1..b_k)), not hermitized;
    refused before the walk once order k's dense matrices would pass MAX_DENSE_BYTES."""
    basis = state.basis
    n = basis.n_particles
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k = {k} exceeds the particle number {n}")
    # past an exponent of 64 every d >= 2 refuses
    refuse(lambda x: _dense_peak_bytes(basis.d ** min(x, 64)), k, MAX_DENSE_BYTES,
           "dense d^k x d^k matrices at order k, 8 * 16 * d^(2k) bytes", f"order for d={basis.d}")
    scale = 1.0 / math.perm(n, k)
    bra = np.conj(state.amplitudes)
    multisets, index = multiset_map(basis.d, k)
    folded = np.zeros((len(multisets), len(multisets)), dtype=np.complex128)
    for j, rows, cols, factor in basis.walk(k):  # row: annihilated multiset
        folded[j] = scale * (ket[cols] * bra[rows] * factor).sum(axis=1)
    return folded[np.ix_(index, index)]


def rdm(state, k):
    """k-particle reduced density matrix of a symmetric state.

    Entry ((a_1..a_k),(b_1..b_k)) is (N-k)!/N! times the normal-ordered
    expectation <a+_{b_1}..a+_{b_k} a_{a_1}..a_{a_k}>.  Each pair of sorted
    index multisets is evaluated once and copied to every entry of its
    orbit, which makes slot-permuted entries bit-identical (ladder chains
    commute, so all orderings agree exactly in exact arithmetic).
    """
    gamma = _walk_rdm(state, k, state.amplitudes)
    gamma = (gamma + gamma.conj().T) / 2
    return DensityMatrix(order=k, d=state.basis.d, matrix=gamma)


def rdm_derivative(state, hamiltonian, k):
    """d/dt of rdm(state, k) under exp(-iHt): -i (X - X^dagger), X the walk
    with ket H psi; exact, for one matvec.  Traceless and Hermitian."""
    x = _walk_rdm(state, k, hamiltonian.matvec(state.amplitudes))
    return -1j * (x - x.conj().T)
