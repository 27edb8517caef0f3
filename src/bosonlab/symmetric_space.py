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

from ._limits import (MAX_BASIS_SIZE, MAX_DENSE_BYTES, MAX_OCCUPATION_KEY, MAX_OPERATOR_BYTES,
                      MAX_WALK_BYTES, _dense_peak_bytes, refuse)
from .hartree import DENSITY_ATOL, DensityMatrix

# The (1 + moves, D) grid of 24-byte cells is H's rows; with its hermitization
# build_hamiltonian peaks at 56 to 84 bytes a cell from 1e5 cells on (tracemalloc, d = 2
# to 8, orders up to 3; order 1 alone the highest, at d = 2); 105 at 1e4 cells; 128 charged.
_BYTES_PER_CELL = 128


def sector_size(d, n_particles):
    """States of the fixed-N sector, C(N+d-1, d-1); none below N = 0."""
    return math.comb(n_particles + d - 1, d - 1) if n_particles >= 0 else 0


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
    if (n_particles + 1) ** d > MAX_OCCUPATION_KEY:
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
    """Hermitian D x D matrix as fixed-width rows stored slot-major: ``cols`` and
    ``values`` are (w, D) arrays, [s, r] slot s of row r, whose slot 0 holds each
    row's diagonal, stored even when 0; a slot that a row does not use holds (its
    own index, 0).  ``interval`` holds the spectrum: :func:`spectral_interval` from
    build_hamiltonian, else (-inf, inf).  ``np.asarray`` gives the dense matrix."""

    cols: np.ndarray
    values: np.ndarray
    interval: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        object.__setattr__(self, "cols", np.asarray(self.cols))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.complex128))
        if self.cols.ndim != 2 or self.cols.shape != self.values.shape or not len(self.cols):
            raise ValueError("cols and values must be (w, D) arrays of one shape, w >= 1")
        size = self.cols.shape[1]
        if (self.cols.dtype.kind not in "iu" or not 0 <= self.cols.min() <= self.cols.max() < size
                or not np.array_equal(self.cols[0], np.arange(size))):
            raise ValueError(f"cols must be integers in [0, {size}), slot 0 the diagonal")
        for a in (self.cols, self.values):
            a.setflags(write=False)

    @property
    def shape(self):
        return (self.cols.shape[1],) * 2

    @property
    def nnz(self):
        """Stored entries: every diagonal and the off-diagonal entries, not the padding."""
        return self.cols.shape[1] + int(np.count_nonzero(self.cols[1:] != self.cols[:1]))

    def matvec(self, x):
        return (self.values * x[self.cols]).sum(axis=0)

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape, dtype=np.complex128)
        np.add.at(out, (np.arange(len(out)), self.cols), self.values)  # padding adds 0
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


def _unmatched(a, b):
    """Per row of the sorted (K, m) multisets a and b, whether b leaves each slot of a
    unmatched: a mode's repeats in a past its count in b."""
    rank = np.tril(a[:, :, None] == a[:, None, :]).sum(axis=2)  # each mode's repeat in its row
    return rank > (a[:, :, None] == b[:, None, :]).sum(axis=2)


def grid_layout(spec):
    """The spec's half of H's grid, the same at every N: per present order m, the orbit-summed
    weights of the multiset pairs (I, J) before 1/(m! N^(m-1)), the kept pairs (either of
    (I, J) and (J, I) weighted) and each kept pair's slot; and the width, 1 + the distinct
    nonzero moves delta = count(I) - count(J) of kept pairs.  Slot 0 holds delta = 0, slot
    1 + i the i-th nonzero delta in lexicographic order, mode 0 first, so slots s and width - s
    hold opposite moves.  A move is coded by the at most 2M modes it changes, +(d - mode) for
    one raised and -(d - mode) for one lowered, mode ascending and padded with 0: the codes
    order as the deltas do, and the layout holds O(P^2) numbers, P = C(d+m-1, m), never d."""
    d, top, chains, codes = spec.d, spec.max_order, [], [np.zeros((1, 2 * spec.max_order), int)]
    for m in spec.present_orders:
        multisets, index = multiset_map(d, m)
        weights = np.zeros((len(multisets), len(multisets)), dtype=np.complex128)
        np.add.at(weights, (index[:, None], index[None, :]), spec.terms[m])
        keep = (weights != 0) | (weights.T != 0)
        sets, (i, j) = np.array(multisets), np.nonzero(keep)
        code = np.zeros((i.size, 2 * top), int)
        code[:, :m] = np.where(_unmatched(sets[i], sets[j]), d - sets[i], 0)
        code[:, m:2 * m] = np.where(_unmatched(sets[j], sets[i]), sets[j] - d, 0)
        codes.append(np.take_along_axis(code, np.argsort(-np.abs(code), axis=1), axis=1))
        chains.append((m, weights, keep, np.zeros(keep.shape, np.int64)))
    codes = np.concatenate(codes)
    order, ranks = np.lexsort(codes.T[::-1]), np.empty(len(codes), np.int64)  # rows ascending
    ranks[order] = np.cumsum(np.r_[0, (np.diff(codes[order], axis=0) != 0).any(axis=1)])
    # codes[0] is delta = 0, the middle move: it takes slot 0, the nonzero moves ascend from 1
    slots, ends = np.where(ranks == ranks[0], 0, ranks + (ranks < ranks[0])), [1]
    for *_, keep, slot in chains:
        ends.append(ends[-1] + np.count_nonzero(keep))
        slot[keep] = slots[ends[-2]:ends[-1]]
    return chains, int(ranks.max()) + 1


def spectral_interval(spec, n_particles):
    """[lo, hi] holding the spectrum of H before it exists (Weyl): each of the C(N, m) subset
    terms of H = sum_m N^(1-m) sum_{|S|=m} V^(m)_S has V^(m)'s spectrum, so lo and hi sum
    C(N, m) N^(1-m) times its ends; (-inf, inf) once that passes the largest float."""
    try:
        ends = [(math.comb(n_particles, m) / max(n_particles, 1) ** (m - 1), low, high)
                for m, low, high in spec.extremes]
    except OverflowError:
        return -math.inf, math.inf
    return sum(c * low for c, low, _ in ends), sum(c * high for c, _, high in ends)


def build_hamiltonian(spec, n_particles, basis=None):
    """Full fixed-N Hamiltonian: the symmetric sum of each order-m term, weighted 1/N^(m-1).

    a+_I a_J moves an occupation by delta = count(I) - count(J): a row meets one column per
    move, so each pair grid_layout keeps writes into its move's slot, and one J's pairs never
    collide.  The hermitized grid is H's rows: slot 0 the diagonal, each slot s >= 1 one move
    for every row, and (own index, 0) in a row that no column reaches by that move."""
    if basis is None:
        basis = enumerate_basis(spec.d, n_particles)
    elif basis.d != spec.d or basis.n_particles != n_particles:
        raise ValueError("basis does not match spec / particle number")
    if spec.max_order > n_particles:
        raise ValueError("interaction order exceeds particle number")
    d, size, (layout, width) = spec.d, basis.size, grid_layout(spec)
    refuse(lambda n: _BYTES_PER_CELL * sector_size(d, n) * width, n_particles,
           MAX_OPERATOR_BYTES, "the operator grid's 128 * D * (1 + moves) bytes",
           f"N for d={d} and orders {list(spec.present_orders)}")
    cols = np.tile(np.arange(size), width)  # the grid, flat; a slot never written keeps its row
    values = np.zeros(cols.size, dtype=np.complex128)
    for m, weights, keep, slots in layout:
        weights = weights * (float(n_particles) ** (1 - m) / math.factorial(m))
        for j, rows, walk_cols, factor in ladder_walk(basis, m):
            flat = slots[keep[j], j][:, None] * size + rows[keep[j]]
            cols[flat] = walk_cols
            values[flat] += weights[keep[j], j][:, None] * factor[keep[j]]
    cols = cols.reshape(width, size)
    stored = (cols != np.arange(size)) | (np.arange(width) == 0)[:, None]
    # an entry's transpose is in its column's row at the reverse move, slot 1 + i's
    # being width - 1 - i; (a + conj b)/2 and (b + conj a)/2 are exact conjugates, and
    # padding, whose transpose is a cell of its own row, stays 0
    transpose = np.r_[0, width - 1:0:-1][:, None] * size + cols
    values = np.where(stored, (values[transpose].conj() + values.reshape(width, size)) / 2, 0)
    return SparseHermitian(cols, values, spectral_interval(spec, n_particles))


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
