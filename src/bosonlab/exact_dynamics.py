"""Exact unitary dynamics, commutator growth, correlation measurements, and
the reduced-density-matrix hierarchy right-hand side.

Symmetric-sector propagation runs one Chebyshev recurrence in H for all the
requested times, with sparse matrix-vector products only.  Commutator growth
needs observables pinned to particles, so it leaves the symmetric sector for
dense blocks, all built by one function: at d = 2 one per total spin of the
spectator particles, at other d the full tensor space as the one block.  Each block is
diagonalized once (dense eigh), and one guard refuses a call whose blocks
would pass MAX_DENSE_BYTES or MAX_KERNEL_WORK before anything is allocated.
"""

import math
from itertools import combinations, product

import numpy as np

from ._limits import (
    MAX_CHEBYSHEV_TERMS, MAX_COEFFICIENT_BYTES, MAX_DENSE_BYTES, MAX_KERNEL_WORK, refuse,
)
from ._tensor import embed_on_sites, partial_trace_last
from .symmetric_space import SparseHermitian, SymmetricState, operator_entries

_LIVE_MATRICES = 8  # dense matrices commutator_growth holds at once (_dense_peak_bytes)
_UNIT_ROUNDOFF = 2.0**-53
_BLOCK = 16  # evolve_exact sums its vectors into the states _BLOCK at a time

_HERM_ATOL = 1e-12

# correlation_gap forms A (x) B for a chunk of pairs at once, at most
# max(d^(2(m+n)), _GAP_STACK_ENTRIES) entries a chunk
_GAP_STACK_ENTRIES = 2**16


def _check_times(times):
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all((t >= 0) & np.isfinite(t)):
        raise ValueError("times must be finite and non-negative")
    return t


def _pair_stacks(d, m, n, a, b):
    """The observable pairs as complex stacks: a of Hermitian d^m x d^m and b of
    Hermitian d^n x d^n matrices (to _HERM_ATOL; NaN fails), equally many."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    a, b = (np.asarray(x, dtype=np.complex128) for x in (a, b))
    for x, k in ((a, m), (b, n)):
        if x.ndim != 3 or x.shape[1:] != (d**k, d**k):
            raise ValueError(f"expected a stack of d^{k} x d^{k} = {d**k} x {d**k} "
                             f"observables, got shape {x.shape}")
        dev = float(np.max(np.abs(x - x.conj().swapaxes(1, 2)), initial=0.0))
        if not dev <= _HERM_ATOL:  # NaN entries fail too
            raise ValueError(f"observable is not Hermitian (max deviation {dev:.3e})")
    if len(a) != len(b):
        raise ValueError("observable stacks must have equal length")
    return a, b


def evolve_exact(hamiltonian, state, times):
    """Propagate a symmetric state to each requested time, in any order.

    ``hamiltonian`` is a :class:`SparseHermitian` on the state's basis.  One
    Chebyshev recurrence in H~ = (H - c)/R, [c - R, c + R] the Gershgorin
    interval of H, serves every time; c comes off every row's slot 0, the
    diagonal, stored even where it is 0.  The K terms are fixed by R t_max
    before any matvec, and a call with K > MAX_CHEBYSHEV_TERMS, or whose
    table of coefficients would pass MAX_COEFFICIENT_BYTES, is refused.
    """
    h, basis = hamiltonian, state.basis
    if h.shape != (basis.size, basis.size):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match basis size {basis.size}")
    grid, slot = np.unique(_check_times(times), return_inverse=True)
    center, radius = _enclosure(h)
    reach = radius * grid[-1]  # NaN or inf in H reads inf terms
    terms = refuse(_chebyshev_terms, reach, MAX_CHEBYSHEV_TERMS, f"propagation to R t = "
                   f"{reach:.3g} (R the spectral half-width), in Chebyshev terms", None)
    refuse(lambda n: 16 * n * (terms + 1), grid.size, MAX_COEFFICIENT_BYTES,
           f"coefficients of {terms + 1} terms, 16 * times * (terms + 1) bytes", "number of times")
    # 2 H~, so that each further vector takes one matvec and one subtraction;
    # shifted before it is scaled, or H = c (R tiny) would give inf - inf
    values = h.values.copy()
    values[:, 0] -= center
    twice = SparseHermitian(h.cols, values * (2 / radius))
    coeffs = _chebyshev_coefficients(radius * grid, terms)
    acc = np.zeros((grid.size, basis.size), dtype=np.complex128)
    block = np.empty((_BLOCK, basis.size), dtype=np.complex128)
    prev, cur = None, state.amplitudes
    for k in range(terms + 1):
        if k:  # v_1 = H~ v_0, v_k = 2 H~ v_(k-1) - v_(k-2)
            prev, cur = cur, twice.matvec(cur) / 2 if k == 1 else twice.matvec(cur) - prev
        block[k % _BLOCK] = cur
        if k % _BLOCK == _BLOCK - 1 or k == terms:
            first = k - k % _BLOCK
            acc += coeffs[:, first : k + 1] @ block[: k + 1 - first]
    acc *= np.exp(-1j * center * grid)[:, None]
    states = [state if t == 0 else SymmetricState(basis, v) for t, v in zip(grid, acc)]
    return [states[i] for i in slot]


def _enclosure(h):
    """Center c and half-width R of the Gershgorin interval [lo, hi] of H, from
    each row's diagonal (slot 0) and the magnitudes of its other slots; R is
    floored at the smallest normal float, so H = c needs no case of its own."""
    diag, radii = h.values[:, 0].real, np.abs(h.values[:, 1:]).sum(axis=1)
    lo, hi = np.min(diag - radii), np.max(diag + radii)
    return (hi + lo) / 2, max((hi - lo) / 2, np.finfo(float).tiny)  # max keeps a NaN


def _chebyshev_terms(x):
    """The smallest K >= x with (x/2)^K / K! < u, which bounds |J_K(x)| and
    the tail past it; inf past MAX_CHEBYSHEV_TERMS or for x not finite."""
    if not x <= MAX_CHEBYSHEV_TERMS:
        return math.inf
    k = max(math.ceil(x), 1)
    log_bound = k * (math.log(x) - math.log(2)) - math.lgamma(k + 1) if x > 0 else -math.inf
    # past x the bound falls by a factor x / (2k) <= 1/2 per step
    while log_bound >= math.log(_UNIT_ROUNDOFF) and k <= MAX_CHEBYSHEV_TERMS:
        k += 1
        log_bound -= math.log(2 * k / x)
    return k if k <= MAX_CHEBYSHEV_TERMS else math.inf


def _radius_ceiling(spec, n):
    """sum_m C(N, m) N^(1-m) sum_ij |V^(m)_ij| >= the Gershgorin half-width of H: an
    order-m chain maps each state to one state, with a factor of at most N!/(N-m)!."""
    return sum(math.comb(n, m) * max(n, 1) ** (1 - m) * float(np.abs(v).sum())
               for m, v in spec.terms.items())


def propagation_work(spec, n_particles, t):
    """A ceiling on evolve_exact's nnz x terms on build_hamiltonian(spec, N) to time t,
    before H exists: (x/2)^K / K! < (e x / 2K)^K < u = 2^-53 at every K >= max(e x, 53),
    so the terms are at most max(e x + 1, 54), x = R t with R by _radius_ceiling;
    inf once a factor passes the largest float."""
    try:
        terms = max(math.e * _radius_ceiling(spec, n_particles) * t + 1, 54)
        return operator_entries(spec.d, n_particles, spec.present_orders) * terms
    except OverflowError:
        return math.inf


def _chebyshev_coefficients(xs, terms):
    """c_k(x) = (2 - delta_k0) (-i)^k J_k(x), k <= terms, one row per x: the
    cosine coefficients of exp(-i x cos theta), by an FFT of 2(terms + 1)
    samples (aliases, from k > terms + 1, are below u).  The phases are formed
    in np.longdouble: in double their rounding, about x u, passes 1e-13 at
    x = 2000 (80-bit on x86-64; elsewhere it may be double)."""
    m = terms + 1
    cosines = np.cos(np.arccos(np.longdouble(-1)) / m * np.arange(2 * m))
    samples = (np.exp(-1j * (x * cosines)).astype(np.complex128) for x in xs)
    table = np.array([np.fft.fft(f)[:m] for f in samples]) / m
    table[:, 0] /= 2
    return table


def _dense_peak_bytes(dim):
    # commutator_growth holds at most _LIVE_MATRICES dense D x D complex128
    # matrices of its largest block at once, block building included, for one
    # pair or a stack (tracemalloc peak / 16 D^2 = 7.17 and 7.11 at d = 2,
    # N = 60 and 40 with m + n = 2 and 3; 7.02 and 7.00 at d = 3, N = 6 and 7)
    return _LIVE_MATRICES * 16 * dim * dim


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
    if max(spec.present_orders, default=0) > n_particles:
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


def _check_rdm(gamma, order, d):
    if gamma.order != order or gamma.d != d:
        raise ValueError(
            f"expected an RDM of order {order} (d={d}), got order {gamma.order} (d={gamma.d})"
        )


def correlation_gap(gamma, m, n, a, b):
    """|tr((A (x) B) (gamma^(m+n) - gamma^(m) (x) gamma^(n)))| from the
    order-(m+n) RDM ``gamma`` of a symmetric state, one gap per pair of the
    stacks ``a`` (A on m particles) and ``b`` (B on n others).

    gamma^(m) and gamma^(n) are its marginals, taken once for every pair.
    Equal, by the definition of the RDMs, to the product-expectation gap
    |<A B> - <A><B>| with A on the first m particles and B on the next n.
    """
    d = gamma.d
    _check_rdm(gamma, m + n, d)
    a, b = _pair_stacks(d, m, n, a, b)
    g = gamma.matrix
    connected = g - np.kron(partial_trace_last(g, d, m + n, n), partial_trace_last(g, d, m + n, m))
    # the pairs' A (x) B, one broadcast product and one stacked matmul per chunk
    chunk = max(1, _GAP_STACK_ENTRIES // connected.size)
    gaps = []
    for x, y in ((a[s : s + chunk], b[s : s + chunk]) for s in range(0, len(a), chunk)):
        krons = (x[:, :, None, :, None] * y[:, None, :, None, :]).reshape(-1, *connected.shape)
        gaps += np.abs(np.trace(krons @ connected, axis1=1, axis2=2)).tolist()
    return gaps


def bbgky_rhs(spec, n_particles, k, gamma):
    """d(gamma^(k))/dt predicted by the finite-N hierarchy.

    ``gamma`` is the order-(k+M-1) RDM, M the highest order present in the
    spec; the order-(k+l) RDMs the hierarchy couples to are its marginals.
    The order-m term enters with weight C(N-k, l)/N^(m-1) for each way of
    placing m-l of its slots on the kept particles and l on traced ones (the
    traced slots are interchangeable, hence the binomial count); at m = 1
    that is the plain one-body commutator.  The result is the Hermitian,
    traceless matrix -i * (sum of commutators); as V and gamma are Hermitian,
    tr_l [V, g] = Y - Y^+ with Y = tr_l (V g), one product per placement.
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
