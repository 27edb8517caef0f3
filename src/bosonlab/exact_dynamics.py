"""Exact unitary dynamics, commutator growth, correlation measurements, and
the reduced-density-matrix hierarchy right-hand side.

Symmetric-sector propagation carries the state from each requested time to
the next, one Chebyshev series in H per interval, with sparse matrix-vector
products only.  Commutator growth needs observables pinned to particles, so
it leaves the symmetric sector for dense blocks, all built by one function:
at d = 2 one per total spin of the spectator particles, at other d the full
tensor space as the one block.  Each block is diagonalized once (dense
eigh), and one guard refuses a call whose blocks would pass MAX_DENSE_BYTES
or MAX_KERNEL_WORK before anything is allocated.
"""

import math
from itertools import combinations, product

import numpy as np

from ._limits import (
    MAX_CHEBYSHEV_TERMS, MAX_DENSE_BYTES, MAX_KERNEL_WORK, _dense_peak_bytes, refuse,
)
from ._tensor import embed_on_sites, partial_trace_last
from .hartree import _check_times
from .operators import HERMITIAN_ATOL
from .symmetric_space import SparseHermitian, SymmetricState, sector_size, spectral_interval

_LOG_UNIT_ROUNDOFF = math.log(2.0**-53)


def _pair_stacks(d, m, n, a, b):
    """The observable pairs as complex stacks: a of Hermitian d^m x d^m and b of
    Hermitian d^n x d^n matrices (to HERMITIAN_ATOL; NaN fails), equally many."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    a, b = (np.asarray(x, dtype=np.complex128) for x in (a, b))
    for x, k in ((a, m), (b, n)):
        if x.ndim != 3 or x.shape[1:] != (d**k, d**k):
            raise ValueError(f"expected a stack of d^{k} x d^{k} = {d**k} x {d**k} "
                             f"observables, got shape {x.shape}")
        dev = float(np.max(np.abs(x - x.conj().swapaxes(1, 2)), initial=0.0))
        if not dev <= HERMITIAN_ATOL:  # NaN entries fail too
            raise ValueError(f"observable is not Hermitian (max deviation {dev:.3e})")
    if len(a) != len(b):
        raise ValueError("observable stacks must have equal length")
    return a, b


def state_bytes(n_times, size):
    """evolve_exact's T states and the recurrence's 6 working vectors, 16 bytes an amplitude;
    not an interval's 2(K+1) FFT samples, up to 200 B a term (200 MB at MAX_CHEBYSHEV_TERMS)."""
    return 16 * (n_times + 6) * size


def evolve_exact(hamiltonian, state, times):
    """Propagate a symmetric state to each requested time.

    ``hamiltonian`` is a :class:`SparseHermitian` on the state's basis.  Each
    grid interval dt, the first from t = 0, takes one Chebyshev series in
    H~ = (H - c)/R, [c - R, c + R] the Gershgorin interval of H cut to ``h.interval``,
    of K(R dt) terms, and the state is carried from each grid time to the next; c
    comes off every row's slot 0, the diagonal, stored even where it is 0.  Before
    any matvec, a call whose summed terms pass MAX_CHEBYSHEV_TERMS is refused,
    as is one whose states would pass MAX_DENSE_BYTES (:func:`state_bytes`).
    """
    h, basis = hamiltonian, state.basis
    if h.shape != (basis.size, basis.size):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match basis size {basis.size}")
    grid = _check_times(times)
    refuse(lambda n: state_bytes(n, basis.size), grid.size, MAX_DENSE_BYTES, f"the propagated "
           f"states at D = {basis.size}, 16 * (times + 6) * D bytes", "number of times")
    center, half_width = _enclosure(h)
    radius, reaches, terms = _interval_terms(half_width, grid)
    refuse(sum, terms, MAX_CHEBYSHEV_TERMS, f"propagation to R t = {radius * grid[-1]:.3g} (R the "
           f"spectral half-width) over {grid.size} grid intervals, summed in Chebyshev terms", None)
    # 2 H~, so that each further vector takes one matvec and one subtraction;
    # shifted before it is scaled, or H = c (R tiny) would give inf - inf
    values = h.values.copy()
    values[0] -= center
    values *= 2 / radius
    twice = SparseHermitian(h.cols, values)
    states, psi = [], state.amplitudes  # psi = exp(-i (H - c) t) psi_0 at the last grid time
    for t, x, k in zip(grid, reaches, terms):
        if k:  # sum_j c_j(x) v_j: v_0 = psi, v_1 = H~ v_0, v_j = 2 H~ v_(j-1) - v_(j-2)
            coeffs = _chebyshev_coefficients(x, k)
            prev, cur = psi, twice.matvec(psi) / 2
            psi = coeffs[0] * prev + coeffs[1] * cur
            for c in coeffs[2:]:
                prev, cur = cur, twice.matvec(cur) - prev
                psi += c * cur
        states.append(state if t == 0 else SymmetricState(basis, np.exp(-1j * center * t) * psi))
    return states


def _enclosure(h):
    """Center and half-width of the Gershgorin interval of H (each row's diagonal, slot 0,
    and the magnitudes of its other slots) cut to ``h.interval``."""
    diag, radii = h.values[0].real, np.abs(h.values[1:]).sum(axis=0)
    lo = np.maximum(np.min(diag - radii), h.interval[0])
    hi = np.minimum(np.max(diag + radii), h.interval[1])
    return (hi + lo) / 2, (hi - lo) / 2


def _interval_terms(half_width, times):
    """R, the half-width floored at the smallest normal float (H = c, or a cut that rounding
    leaves empty, needs no case; max keeps a NaN), and each grid interval's reach x = R dt,
    the first from t = 0, with its K(x) terms: t = 0 takes none, a NaN or inf R inf terms."""
    radius, ends = max(float(half_width), np.finfo(float).tiny), [0.0, *map(float, times)]
    reaches = [radius * (b - a) for a, b in zip(ends, ends[1:])]
    known = {x: _chebyshev_terms(x) if x else 0 for x in set(reaches)}  # an even grid has few
    return radius, reaches, [known[x] for x in reaches]


def _chebyshev_terms(x):
    """The smallest K >= x with (x/2)^K / K! < u, which bounds |J_K(x)| and the tail past it,
    by bisection, as the bound falls with K past x/2; inf past MAX_CHEBYSHEV_TERMS or NaN."""
    if not x <= MAX_CHEBYSHEV_TERMS:
        return math.inf
    slope = math.log(x) - math.log(2) if x > 0 else -math.inf
    lo, hi = max(math.ceil(x), 1) - 1, MAX_CHEBYSHEV_TERMS + 1  # hi holds (past the limit: none)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid * slope - math.lgamma(mid + 1) < _LOG_UNIT_ROUNDOFF else (mid, hi)
    return hi if hi <= MAX_CHEBYSHEV_TERMS else math.inf


def propagation_terms(spec, n_particles, times):
    """evolve_exact's summed terms at most, before H exists: K(x) on the Weyl half-width."""
    lo, hi = spectral_interval(spec, n_particles)
    return sum(_interval_terms((hi - lo) / 2, times)[2])


def propagation_work(spec, n_particles, times):
    """D x propagation_terms (times grid_layout's width, the cells x terms that run)."""
    terms = propagation_terms(spec, n_particles, times)
    return math.inf if terms == math.inf else sector_size(spec.d, n_particles) * terms


def _chebyshev_coefficients(x, terms):
    """c_k(x) = (2 - delta_k0) (-i)^k J_k(x), k <= terms: the cosine
    coefficients of exp(-i x cos theta), by an FFT of 2(terms + 1) samples
    (aliases, from k > terms + 1, are below u).  The phases are formed in
    np.longdouble: in double their rounding, about x u, passes 1e-13 at
    x = 2000 (80-bit on x86-64; elsewhere it may be double)."""
    m = terms + 1
    cosines = np.cos(np.arccos(np.longdouble(-1)) / m * np.arange(2 * m))
    coeffs = np.fft.fft(np.exp(-1j * (x * cosines)).astype(np.complex128))[:m] / m
    coeffs[0] /= 2
    return coeffs


def _tensor_slots(d, n_particles, n_active):
    """How many particles the blocks keep as C^d tensor slots, the active ones
    first: at d = 2 only the active ones (the K = N - n_active spectators form
    the collective spin-S irreps), at other d every particle (K = 0)."""
    return n_active if d == 2 else n_particles


def _block_dims(d, n_particles, n_active):
    """Dimensions of the blocks commutator_growth diagonalizes, largest
    first: d^slots (2S+1) for each spectator spin S = K/2, K/2 - 1, ...
    (K = N - slots); one block, the full space, when K = 0."""
    n_slots = _tensor_slots(d, n_particles, n_active)
    # exponent capped at 64, past which every limit refuses (d >= 2); a range,
    # so refusing a huge N builds neither d^N nor a list
    slot_dim = d ** min(n_slots, 64)
    return range(slot_dim * (n_particles - n_slots + 1), 0, -2 * slot_dim)


def block_work(d, n_particles, n_active, n_times, n_pairs):
    """A commutator_growth call's sum over blocks of dim^3 x (1 + pairs x times); inf
    once its largest block passes MAX_DENSE_BYTES, which bounds the block count."""
    dims = _block_dims(d, n_particles, n_active)
    if dims and _dense_peak_bytes(dims[0]) > MAX_DENSE_BYTES:
        return math.inf
    return sum(dim**3 for dim in dims) * (1 + n_pairs * n_times)


def _guard_blocks(d, n_particles, n_active, n_times, n_pairs):
    """The block_work of a commutator_growth call, refused past MAX_KERNEL_WORK."""
    return refuse(lambda n: block_work(d, n, n_active, n_times, n_pairs), n_particles,
                  MAX_KERNEL_WORK, f"commutator growth at N={n_particles} would pass "
                  f"{MAX_DENSE_BYTES} bytes of dense matrices (inf work) or its work, sum over "
                  f"blocks of dim^3 x (1 + {n_pairs} x {n_times})",
                  f"N for d={d}, m+n={n_active} and {n_times} times")


def _collective_generators(n_spectators, size):
    """E_ab = sum over spectators of |a><b| on the spin-S irrep, 2S+1 = size:
    E_00 = K/2 + S_z, E_11 = K/2 - S_z, E_01 = S_+, E_10 = S_-, in the basis
    S_z = S, S - 1, ..., -S."""
    spin = (size - 1) / 2
    m_z = spin - np.arange(size)
    raising = np.diag(np.sqrt(spin * (spin + 1) - m_z[1:] * (m_z[1:] + 1)), 1)
    half = n_spectators / 2
    return ((np.diag(half + m_z), raising), (raising.T, np.diag(half - m_z)))


def _normal_ordered(gens, gammas, deltas, memo):
    """Sum over distinct ordered spectators j_1..j_s of prod_i |gamma_i><delta_i|
    at j_i, by E^(s) = E^(s-1) E_{gamma_s delta_s} minus the coincident terms."""
    key = (gammas, deltas)
    if key not in memo:
        if not gammas:
            memo[key] = np.eye(gens[0][0].shape[0])
        else:
            g, dl = gammas[-1], deltas[-1]
            out = _normal_ordered(gens, gammas[:-1], deltas[:-1], memo) @ gens[g][dl]
            for i, di in enumerate(deltas[:-1]):
                if di == g:
                    moved = deltas[:i] + (dl,) + deltas[i + 1 : -1]
                    out = out - _normal_ordered(gens, gammas[:-1], moved, memo)
            memo[key] = out
    return memo[key]


def _spectator_operators(n_spectators, size, labels):
    """The normal-ordered product for each (gammas, deltas) in labels, on the
    spin-S irrep of n_spectators particles, 2S+1 = size."""
    gens = _collective_generators(n_spectators, size)
    memo = {}
    return np.array([_normal_ordered(gens, g, dl, memo) for g, dl in labels])


def _block_hamiltonians(spec, n_particles, n_active):
    """H restricted to each block of commutator_growth, largest first.

    The block space is (C^d)^(x slots) (x) V_S: the tensor slots (see
    _tensor_slots), then the spin-S irrep of the K = N - slots spectators,
    S = K/2, K/2 - 1, ...  An order-m term with r slots on tensor slots and
    s = m - r on spectators sums, over spectator subsets, to (1/s!) times the
    normal-ordered product of collective generators; the slot symmetry of
    validated terms makes the choice of slots immaterial.  At K = 0 only
    s = 0 occurs, and the one block is the full space.
    """
    d = spec.d
    n_slots = _tensor_slots(d, n_particles, n_active)
    k = n_particles - n_slots
    # spectator (gammas, deltas) -> operator on the slots; starts from zero so
    # that a spec without terms gives H = 0
    parts = {((), ()): np.zeros((d**n_slots, d**n_slots), dtype=np.complex128)}
    for m in spec.present_orders:
        t = spec.terms[m]
        for s in range(max(0, m - n_slots), min(m, k) + 1):
            r = m - s
            weight = float(n_particles) ** (1 - m) / math.factorial(s)
            blocks = t.reshape(d**r, d**s, d**r, d**s)
            labels = list(product(range(d), repeat=s))
            for x, gammas in enumerate(labels):
                for y, deltas in enumerate(labels):
                    parts[gammas, deltas] = parts.get((gammas, deltas), 0) + weight * sum(
                        embed_on_sites(blocks[:, x, :, y], sites, d, n_slots)
                        for sites in combinations(range(n_slots), r)
                    )
    # at K = 0 parts and acts are D x D each: none may stay alive while the
    # kernel runs on the last block, or the call passes _LIVE_MATRICES
    keys, acts = list(parts), np.array(list(parts.values()))
    del parts
    sizes = range(k + 1, 0, -2)
    for size in sizes:
        dim = d**n_slots * size
        h = np.tensordot(acts, _spectator_operators(k, size, keys), axes=(0, 0))
        if size == sizes[-1]:
            del acts
        # the reshape copies; rebinding h frees the tensordot result before the yield
        h = h.transpose(0, 2, 1, 3).reshape(dim, dim)
        yield h


def _commutator_norms(h, acts_a, acts_b, times):
    """||[A, B(t)]|| on one block for each pair, A = act_a (x) 1 and
    B = act_b (x) 1: one eigh for every pair; a row of norms per pair."""
    # a real block (a real spec) diagonalizes 3-5x faster as real symmetric
    w, v = np.linalg.eigh(h if h.imag.any() else h.real)
    return np.array([_pair_norms(w, v, a, b, times) for a, b in zip(acts_a, acts_b)])


def _pair_norms(w, v, act_a, act_b, times):
    """One pair's norms on the block with eigenpairs (w, v): A~ = V^+ A V and
    B~ = V^+ B V, then per time a phase product B~(t) = e^{iwt} B~ e^{-iwt},
    one matmul C = A~ B~(t) and the eigvalsh of the Hermitian i(C - C^+);
    at t = 0 none, as disjoint supports make the norm exactly 0. A function
    of its own so that no pair's D x D matrices outlive it."""
    rows = v.reshape(act_a.shape[0], -1)
    a, b = (v.conj().T @ (act @ rows).reshape(v.shape) for act in (act_a, act_b))
    norms = np.zeros(len(times))
    for i, t in enumerate(times):
        if t == 0:
            continue
        phase = np.exp(1j * w * t)
        c = a @ (np.multiply.outer(phase, phase.conj()) * b)
        norms[i] = np.max(np.abs(np.linalg.eigvalsh(1j * (c - c.conj().T))))
    return norms


def commutator_growth(spec, n_particles, m, n, a, b, times):
    """Spectral norms ||[A, B(t)]|| with B evolved in the Heisenberg picture,
    one list of norms per pair of the stacks ``a`` (A on m particles) and ``b``
    (B on n others).

    A and B live on disjoint particles, so the value at t = 0 is exactly zero.
    H is permutation symmetric, so which particles they occupy does not change
    the norm: B acts on the first n, A on the next m.  Observables pinned to
    particles break permutation symmetry, so the symmetric sector cannot
    express this quantity; H, A and B still commute with permutations of the
    other N - m - n (spectator) particles.  At d = 2 the norm is therefore the
    maximum over spectator spins S of the norm on a block of dimension
    2^(m+n) (2S+1) (Schur-Weyl); at other d the single block is the full
    tensor space.  Each block is built and diagonalized once for every pair.
    """
    if m + n > n_particles:
        raise ValueError(f"m + n = {m + n} exceeds N = {n_particles}")
    if spec.max_order > n_particles:
        raise ValueError("interaction order exceeds particle number")
    d, t = spec.d, _check_times(times)
    a, b = _pair_stacks(d, m, n, a, b)
    _guard_blocks(d, n_particles, m + n, len(t), len(a))
    acts_a = [embed_on_sites(x, range(n, n + m), d, m + n) for x in a]
    acts_b = [embed_on_sites(x, range(n), d, m + n) for x in b]
    norms = np.zeros((len(a), len(t)))
    for h in _block_hamiltonians(spec, n_particles, m + n):
        norms = np.maximum(norms, _commutator_norms(h, acts_a, acts_b, t))
    return [[float(x) for x in row] for row in norms]


def correlation_gap(gamma, m, n, a, b):
    """|tr((A (x) B) (gamma^(m+n) - gamma^(m) (x) gamma^(n)))| from the
    order-(m+n) RDM ``gamma`` of a symmetric state, one gap per pair of the
    stacks ``a`` (A on m particles) and ``b`` (B on n others).

    gamma^(m) and gamma^(n) are its marginals, taken once for every pair.
    Equal, by the definition of the RDMs, to the product-expectation gap
    |<A B> - <A><B>| with A on the first m particles and B on the next n.
    No A (x) B is formed: tr((A (x) B) C) = sum A_ij B_kl C_(jl),(ik), so the
    connected RDM C, its slots reordered to (ij),(kl), takes one (1 x d^2m) @
    (d^2m x d^2n) product per pair, the same for a pair alone or in a stack.
    """
    d = gamma.d
    if gamma.order != m + n:
        raise ValueError(f"expected an RDM of order {m + n}, got order {gamma.order}")
    a, b = _pair_stacks(d, m, n, a, b)
    g = gamma.matrix
    connected = g - np.kron(partial_trace_last(g, d, m + n, n), partial_trace_last(g, d, m + n, m))
    slots = connected.reshape((d**m, d**n) * 2).transpose(2, 0, 3, 1).reshape(d ** (2 * m), -1)
    traces = (a.reshape(len(a), 1, -1) @ slots) @ b.reshape(len(b), -1, 1)
    return np.abs(traces).reshape(-1).tolist()


def bbgky_rhs(spec, n_particles, k, gamma):
    """d(gamma^(k))/dt predicted by the finite-N hierarchy.

    ``gamma`` is an RDM of order k+M-1 or more, M the highest order present
    in the spec; the order-(k+l) RDMs the hierarchy couples to are its marginals.
    The order-m term enters with weight C(N-k, l)/N^(m-1) for each way of
    placing m-l of its slots on the kept particles and l on traced ones (the
    traced slots are interchangeable, hence the binomial count); at m = 1
    that is the plain one-body commutator.  The result is the Hermitian,
    traceless matrix -i * (sum of commutators); as V and gamma are Hermitian,
    tr_l [V, g] = Y - Y^+ with Y = tr_l (V g), one product per placement.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d, needed = spec.d, k + spec.max_order - 1
    if needed > n_particles:
        raise ValueError(f"hierarchy needs RDM order k + {spec.max_order - 1} = {needed}"
                         f" > N = {n_particles}")
    if gamma.order < needed or gamma.d != d:
        raise ValueError(f"expected an RDM of order >= {needed} (d={d}), "
                         f"got order {gamma.order} (d={gamma.d})")
    y = np.zeros((d**k, d**k), dtype=np.complex128)
    for m in spec.present_orders:
        vmat = spec.terms[m]
        prefactor = float(n_particles) ** (1 - m)
        for offset in range(max(0, m - k), m):
            g = partial_trace_last(gamma.matrix, d, gamma.order, gamma.order - k - offset)
            coeff = math.comb(n_particles - k, offset) * prefactor
            for kept in combinations(range(k), m - offset):
                v_emb = embed_on_sites(vmat, kept + tuple(range(k, k + offset)), d, k + offset)
                y += coeff * partial_trace_last(v_emb @ g, d, k + offset, offset)
    return -1j * (y - y.conj().T)
