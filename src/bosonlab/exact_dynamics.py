"""Exact unitary dynamics, the full-tensor-space oracle, correlation
measurements, and the reduced-density-matrix hierarchy right-hand side.

Symmetric-sector propagation applies truncated Taylor series of exp(-iHt)
to the state, with sparse matrix-vector products only.  The full-space
builders exist as a brute-force cross-check of the symmetric-subspace
machinery: they diagonalize once per time grid (dense eigh) and refuse a
dimension whose dense matrices would exceed MAX_DENSE_BYTES.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._tensor import embed_on_sites, partial_trace_last
from .operators import operator_norm
from .symmetric_space import SparseHermitian, SymmetricState

# The full-space path refuses a dimension whose dense matrices would pass
# MAX_DENSE_BYTES at their peak (see _dense_peak_bytes).
MAX_DENSE_BYTES = 2**32

# Taylor degree m and theta_m: the largest ||A||_1 * tau at which the degree-m
# series of exp(tau A) has backward error below 2^-53 (Al-Mohy & Higham,
# SIAM J. Sci. Comput. 33 (2011), Table 3.1).
_TAYLOR_DEGREE = 55
_TAYLOR_THETA = 9.9
_UNIT_ROUNDOFF = 2.0**-53
MAX_SUBSTEPS = 100_000

_HERM_ATOL = 1e-12


def _check_hermitian(matrix, what):
    dev = float(np.max(np.abs(matrix - matrix.conj().T)))
    if not dev <= _HERM_ATOL:  # NaN entries fail too
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e})")


def _check_times(times):
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all((t >= 0) & np.isfinite(t)):
        raise ValueError("times must be finite and non-negative")
    return t


@dataclass(frozen=True, eq=False)
class ObservableOnSubset:
    """A Hermitian observable acting on an explicit ordered set of particles.

    ``support`` uses 1-based particle labels; slot s of ``matrix`` acts on
    particle support[s].
    """

    support: tuple
    matrix: np.ndarray

    def __post_init__(self):
        sup = tuple(int(i) for i in self.support)
        if len(sup) == 0:
            raise ValueError("support must be non-empty")
        if len(set(sup)) != len(sup):
            raise ValueError("support indices must be distinct")
        if min(sup) < 1:
            raise ValueError("support uses 1-based particle labels")
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("observable matrix must be square")
        _check_hermitian(mat, "observable")
        mat.setflags(write=False)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "matrix", mat)


def evolve_exact(hamiltonian, state, times):
    """Propagate a symmetric state to each requested time, in any order.

    ``hamiltonian`` is a :class:`SparseHermitian` or a dense Hermitian array.
    Each gap dt between sorted distinct times takes ceil(||H - mu||_1 dt /
    theta) substeps of Taylor series in H - mu, mu = tr(H)/D; a call that
    would take more than MAX_SUBSTEPS is refused before any of them.
    """
    h = hamiltonian if isinstance(hamiltonian, SparseHermitian) else np.asarray(hamiltonian)
    basis = state.basis
    if h.shape != (basis.size, basis.size):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match basis size {basis.size}")
    if isinstance(h, np.ndarray):
        _check_hermitian(h, "Hamiltonian")
        rows, cols = np.nonzero(h)
        h = SparseHermitian.from_triples(basis.size, rows, cols, h[rows, cols].astype(complex))
    t = _check_times(times)
    grid, slot = np.unique(t, return_inverse=True)
    gaps = np.diff(grid, prepend=0.0)

    on_diag = h.rows == h.cols
    diag = np.zeros(basis.size)
    diag[h.rows[on_diag]] = h.values[on_diag].real
    mu = diag.sum() / basis.size
    off_diag = np.bincount(h.cols[~on_diag], np.abs(h.values[~on_diag]), basis.size)
    norm1 = float(np.max(off_diag + np.abs(diag - mu)))
    substeps = np.maximum(np.ceil(norm1 * gaps / _TAYLOR_THETA), gaps > 0)
    if not substeps.sum() <= MAX_SUBSTEPS:  # compared as floats: overflow reads inf
        raise ValueError(
            f"propagation would take {substeps.sum():.0f} Taylor substeps "
            f"(budget {MAX_SUBSTEPS}); shorten the times"
        )

    psi = state.amplitudes
    states = []
    for gap, steps in zip(gaps, substeps.astype(np.int64)):
        tau = gap / max(steps, 1)
        for _ in range(steps):
            psi = np.exp(-1j * mu * tau) * _taylor_series(h, mu, psi, tau)
        states.append(SymmetricState(basis, psi))
    return [states[i] for i in slot]


def _taylor_series(h, mu, psi, tau):
    """Truncated Taylor series of exp(-i (H - mu) tau) applied to psi."""
    term = total = psi
    previous = np.max(np.abs(term))
    for j in range(1, _TAYLOR_DEGREE + 1):
        term = (-1j * tau / j) * (h.matvec(term) - mu * term)
        total = total + term
        current = np.max(np.abs(term))
        if previous + current <= _UNIT_ROUNDOFF * np.max(np.abs(total)):
            break
        previous = current
    return total


def _dense_peak_bytes(dim):
    # commutator_growth holds at most 9 dense D x D complex128 matrices at
    # once (tracemalloc peak / 16 D^2 = 9.00 at d = 2, N = 9, 10, 11)
    return 9 * 16 * dim * dim


def _guard_dimension(d, n_particles):
    dim = d**n_particles
    if _dense_peak_bytes(dim) > MAX_DENSE_BYTES:
        max_n = 0
        while _dense_peak_bytes(d ** (max_n + 1)) <= MAX_DENSE_BYTES:
            max_n += 1
        raise ValueError(
            f"full-space dimension {d}^{n_particles} = {dim} would hold "
            f"{_dense_peak_bytes(dim)} bytes of dense matrices (> {MAX_DENSE_BYTES}); "
            f"largest workable N for d={d} is {max_n}"
        )
    return dim


def fullspace_build(spec, n_particles):
    """Literal Hamiltonian on (C^d)^(x N): brute-force oracle, no symmetry used."""
    d = spec.d
    dim = _guard_dimension(d, n_particles)
    h = np.zeros((dim, dim), dtype=np.complex128)
    for m in spec.present_orders:
        if m > n_particles:
            raise ValueError("interaction order exceeds particle number")
        prefactor = float(n_particles) ** (1 - m)
        vmat = spec.terms[m].matrix
        for sites in combinations(range(n_particles), m):
            h += prefactor * embed_on_sites(vmat, sites, d, n_particles)
    return (h + h.conj().T) / 2


def commutator_growth(spec, n_particles, obs_a, obs_b, times):
    """Spectral norms ||[A, B(t)]|| with B evolved in the Heisenberg picture.

    A and B must live on disjoint particle subsets, so the value at t = 0 is
    exactly zero.  Runs in the full tensor space: observables pinned to
    specific particles break permutation symmetry, so the symmetric sector
    cannot express this quantity.
    """
    if set(obs_a.support) & set(obs_b.support):
        raise ValueError("supports must be disjoint")
    d = spec.d
    for obs in (obs_a, obs_b):
        if max(obs.support) > n_particles:
            raise ValueError("support index exceeds particle number")
        if obs.matrix.shape[0] != d ** len(obs.support):
            raise ValueError(
                f"observable dimension {obs.matrix.shape[0]} does not match "
                f"d^|support| = {d ** len(obs.support)}"
            )
    t = _check_times(times)
    h = fullspace_build(spec, n_particles)
    w, v = np.linalg.eigh(h)
    a_emb = embed_on_sites(obs_a.matrix, tuple(i - 1 for i in obs_a.support), d, n_particles)
    b_emb = embed_on_sites(obs_b.matrix, tuple(i - 1 for i in obs_b.support), d, n_particles)
    out = []
    for ti in t:
        u = (v * np.exp(1j * w * ti)) @ v.conj().T
        b_t = u @ b_emb @ u.conj().T
        out.append(operator_norm(a_emb @ b_t - b_t @ a_emb))
    return out


def _check_rdm(gamma, order, d):
    if gamma.order != order or gamma.d != d:
        raise ValueError(
            f"expected an RDM of order {order} (d={d}), got order {gamma.order} (d={gamma.d})"
        )


def correlation_gap(gamma, m, n, a_matrix, b_matrix):
    """|tr((A (x) B) (gamma^(m+n) - gamma^(m) (x) gamma^(n)))| from the
    order-(m+n) RDM ``gamma`` of a symmetric state.

    gamma^(m) and gamma^(n) are its marginals.  Equal, by the definition of
    the RDMs, to the product-expectation gap |<A B> - <A><B>| with A on the
    first m particles and B on the next n.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    d = gamma.d
    _check_rdm(gamma, m + n, d)
    a = np.asarray(a_matrix, dtype=np.complex128)
    b = np.asarray(b_matrix, dtype=np.complex128)
    if a.shape != (d**m, d**m) or b.shape != (d**n, d**n):
        raise ValueError("observable dimensions do not match d^m / d^n")
    g_m = gamma.marginal(m).matrix
    g_n = gamma.marginal(n).matrix
    return float(abs(np.trace(np.kron(a, b) @ (gamma.matrix - np.kron(g_m, g_n)))))


def bbgky_rhs(spec, n_particles, k, gamma):
    """d(gamma^(k))/dt predicted by the finite-N hierarchy.

    ``gamma`` is the order-(k+M-1) RDM, M the highest order present in the
    spec; the order-(k+l) RDMs the hierarchy couples to are its marginals.
    The order-m term enters with weight C(N-k, l)/N^(m-1) for each way of
    placing m-l of its slots on the kept particles and l on traced ones (the
    traced slots are interchangeable, hence the binomial count); at m = 1
    that is the plain one-body commutator.  The result is the Hermitian,
    traceless matrix -i * (sum of commutators).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = spec.d
    max_present = max(spec.present_orders, default=1)
    if k + max_present - 1 > n_particles:
        raise ValueError(
            f"hierarchy needs RDM order k + {max_present - 1} = {k + max_present - 1}"
            f" > N = {n_particles}"
        )
    _check_rdm(gamma, k + max_present - 1, d)
    dim_k = d**k
    acc = np.zeros((dim_k, dim_k), dtype=np.complex128)
    for m in spec.present_orders:
        vmat = spec.terms[m].matrix
        prefactor = float(n_particles) ** (1 - m)
        for offset in range(max(0, m - k), m):
            g = gamma.marginal(k + offset).matrix
            coeff = math.comb(n_particles - k, offset) * prefactor
            block = np.zeros((dim_k, dim_k), dtype=np.complex128)
            for kept in combinations(range(k), m - offset):
                sites = tuple(kept) + tuple(range(k, k + offset))
                v_emb = embed_on_sites(vmat, sites, d, k + offset)
                block += partial_trace_last(v_emb @ g - g @ v_emb, d, k + offset, offset)
            acc += coeff * block
    return -1j * acc
