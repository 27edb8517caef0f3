"""Occupation-number coordinates for the permutation-symmetric subspace.

N bosons on d modes live in the span of occupation vectors (n_1 .. n_d),
sum n_i = N, of dimension binomial(N+d-1, d-1).  Operators are assembled in
second-quantized form: a symmetric sum of an order-m interaction over all
m-subsets of particles equals

    (1/m!) sum_{i_vec, j_vec} <i_vec|V|j_vec> a+_{i_1}..a+_{i_m} a_{j_1}..a_{j_m}

restricted to the fixed-N sector, which the kernels evaluate by walking
occupation tuples with the ladder square-root factors (no d^N objects are
ever materialized).  Basis order is lexicographically descending and
deterministic, so matrices built from equal inputs are bit-identical.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import decode_digits, mbody_matrix, rdm_matrix
from .hartree import DensityMatrix

# Dense desk-scale guard: basis enumeration refuses beyond this many states
# rather than silently attempting a huge allocation.
MAX_BASIS_SIZE = 2_000_000


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


def build_symmetric_operator(term, basis, prefactor):
    """prefactor * sum over all m-subsets of particles of the interaction.

    Returns a Hermitian (explicitly symmetrized) dense matrix on the basis.
    """
    m = term.order
    d = basis.d
    if m > basis.n_particles:
        raise ValueError("interaction order exceeds particle number")
    if term.matrix.shape[0] != d**m:
        raise ValueError(
            f"potential dimension {term.matrix.shape[0]} does not match d^m = {d**m}"
        )
    digits = decode_digits(d, m)
    vmat = np.ascontiguousarray(term.matrix, dtype=np.complex128)
    out = mbody_matrix(
        basis.vectors,
        basis.keys_ascending,
        basis.positions_ascending,
        np.int64(basis.n_particles + 1),
        vmat,
        digits,
        float(prefactor) / math.factorial(m),
    )
    return (out + out.conj().T) / 2


def build_hamiltonian(spec, n_particles, basis=None):
    """Full fixed-N Hamiltonian: order-m terms carry the 1/N^(m-1) prefactor."""
    if basis is None:
        basis = enumerate_basis(spec.d, n_particles)
    elif basis.d != spec.d or basis.n_particles != n_particles:
        raise ValueError("basis does not match spec / particle number")
    h = np.zeros((basis.size, basis.size), dtype=np.complex128)
    for m in spec.present_orders:
        prefactor = 1.0 if m == 1 else float(n_particles) ** (1 - m)
        h += build_symmetric_operator(spec.terms[m], basis, prefactor)
    return (h + h.conj().T) / 2


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
