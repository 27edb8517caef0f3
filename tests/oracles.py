"""Brute-force reference routes used to pin expected values.

Everything here recomputes results in the crudest way available — explicit
permutation sums, full tensor-product spaces, literal textbook formulas,
fixed-step integration — deliberately sharing no code path with the package
internals it checks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


def rand_herm(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def rand_unit_herm(rng, dim):
    h = rand_herm(rng, dim)
    return h / np.linalg.norm(h, 2)


def structured_terms(rng, d, orders):
    """Seeded Hermitian, slot-symmetric terms {m: V^(m)} whose blocks between
    index tuples of one multiset of modes vanish, but for a projector:
    V^(m) = W + c_m |a..a><a..a|, one mode a for all orders, W random and
    zero wherever row and column hold the same modes.  The H they make has a
    structurally zero diagonal on every state with mode a empty, which random
    terms never leave; at d = 1 only the projector is left."""
    terms, a = {}, int(rng.integers(d))
    for m in orders:
        tuples = list(itertools.product(range(d), repeat=m))
        same = np.array([[sorted(p) == sorted(q) for q in tuples] for p in tuples])
        w = np.where(same, 0, rand_herm(rng, d**m))
        perms = list(itertools.permutations(range(m)))
        w = sum(p @ w @ p.T for p in (permutation_operator(d, m, q) for q in perms)) / len(perms)
        corner = _ravel((a,) * m, d)
        w[corner, corner] += rng.standard_normal()
        terms[m] = w
    return terms


def rand_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T + 1e-6 * np.eye(dim)
    return w / np.trace(w).real


def _ravel(digits, d):
    idx = 0
    for q in digits:
        idx = idx * d + int(q)
    return idx


def embed_brute(matrix, sites, d, n_slots):
    """Act with `matrix` on the given slots, identity elsewhere, via index loops."""
    k = len(sites)
    dim = d**n_slots
    out = np.zeros((dim, dim), dtype=np.complex128)
    rest = [q for q in range(n_slots) if q not in sites]
    for row_sub in itertools.product(range(d), repeat=k):
        for col_sub in itertools.product(range(d), repeat=k):
            v = matrix[_ravel(row_sub, d), _ravel(col_sub, d)]
            if v == 0:
                continue
            for fill in itertools.product(range(d), repeat=len(rest)):
                row = [0] * n_slots
                col = [0] * n_slots
                for s, r in zip(sites, row_sub):
                    row[s] = r
                for s, c in zip(sites, col_sub):
                    col[s] = c
                for q, f in zip(rest, fill):
                    row[q] = f
                    col[q] = f
                out[_ravel(row, d), _ravel(col, d)] += v
    return out


def permutation_operator(d, n_slots, perm):
    """Unitary sending slot j of the input to slot perm[j] of the output."""
    dim = d**n_slots
    p = np.zeros((dim, dim))
    for idx in itertools.product(range(d), repeat=n_slots):
        out = [0] * n_slots
        for j, q in enumerate(perm):
            out[q] = idx[j]
        p[_ravel(out, d), _ravel(idx, d)] = 1.0
    return p


def symmetrizer(d, n_slots):
    """Projector onto the permutation-symmetric subspace of (C^d)^(x n)."""
    acc = np.zeros((d**n_slots, d**n_slots))
    for perm in itertools.permutations(range(n_slots)):
        acc += permutation_operator(d, n_slots, perm)
    return acc / math.factorial(n_slots)


def symmetric_isometry(basis):
    """Columns: normalized symmetrized product vectors, one per occupation tuple.

    Maps symmetric-sector coordinates into the full d^N space; T†T = I.
    """
    d, n = basis.d, basis.n_particles
    t = np.zeros((d**n, basis.size), dtype=np.complex128)
    for col in range(basis.size):
        occ = basis.vectors[col]
        modes = [mode for mode, cnt in enumerate(occ) for _ in range(int(cnt))]
        for perm in set(itertools.permutations(modes)):
            t[_ravel(perm, d), col] = 1.0
        t[:, col] /= np.linalg.norm(t[:, col])
    return t


def trace_out_last(rho, d, n_slots, n_traced):
    """Partial trace over the trailing slots by plain index summation."""
    dk = d ** (n_slots - n_traced)
    dt = d**n_traced
    rho = np.asarray(rho).reshape(dk, dt, dk, dt)
    out = np.zeros((dk, dk), dtype=np.complex128)
    for j in range(dt):
        out += rho[:, j, :, j]
    return out


def hamiltonian_brute(spec, n_particles):
    """H as written: subset sums of embedded m-body terms, 1/N^(m-1) weights."""
    d = spec.d
    h = np.zeros((d**n_particles, d**n_particles), dtype=np.complex128)
    for m in sorted(spec.terms):
        pre = 1.0 if m == 1 else float(n_particles) ** (1 - m)
        for sites in itertools.combinations(range(n_particles), m):
            h += pre * embed_brute(spec.terms[m], sites, d, n_particles)
    return h


def expm_taylor(matrix):
    """exp(matrix) by scaling and squaring of the plain Taylor series."""
    x = np.asarray(matrix, dtype=np.complex128)
    norm = np.max(np.sum(np.abs(x), axis=0))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0 else 0
    x = x / 2**squarings
    term = total = np.eye(x.shape[0], dtype=np.complex128)
    for j in range(1, 40):  # ||x||_1 <= 1/2: about 20 terms reach roundoff
        term = term @ x / j
        total = total + term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def commutator_norms_brute(h, d, n_particles, support_a, a, support_b, b, times):
    """||[A, U(t)^+ B U(t)]|| with U(t) = expm(-iHt) of a full-space H (say
    hamiltonian_brute), A = a on the particles support_a and B = b on
    support_b (1-based labels, slot s of a matrix on particle support[s]),
    each norm the largest singular value; no eigenbasis, no symmetry."""
    a, b = (
        embed_brute(matrix, [i - 1 for i in support], d, n_particles)
        for support, matrix in ((support_a, a), (support_b, b))
    )
    out = []
    for t in times:
        u = expm_taylor(-1j * t * h)
        b_t = u.conj().T @ b @ u
        out.append(float(np.linalg.norm(a @ b_t - b_t @ a, 2)))
    return out


@dataclass(frozen=True, eq=False)
class FullSpaceState:
    """Unit vector on the full d^N tensor-product space."""

    d: int
    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.d**self.n_particles:
            raise ValueError(
                f"amplitude length {amps.size} is not d^N = {self.d**self.n_particles}"
            )
        dev = abs(np.linalg.norm(amps) - 1.0)
        if not dev <= 1e-10:
            raise ValueError(f"state norm deviates from 1 by {dev:.3e}")
        object.__setattr__(self, "amplitudes", amps)


def fullspace_evolve(hamiltonian, state, times):
    """exp(-iHt) on a full-space state at each time, by one dense eigh."""
    h = np.asarray(hamiltonian)
    dim = state.d**state.n_particles
    if h.shape != (dim, dim):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match dimension {dim}")
    if not np.max(np.abs(h - h.conj().T)) <= 1e-12:
        raise ValueError("Hamiltonian is not Hermitian")
    w, v = np.linalg.eigh(h)
    coeff = v.conj().T @ state.amplitudes
    return [
        FullSpaceState(state.d, state.n_particles, v @ (np.exp(-1j * w * t) * coeff))
        for t in times
    ]


def coefficient_l1(matrix, d, m):
    """Sum of |<E, V>| over every product matrix-unit basis element."""
    total = 0.0
    for labels in itertools.product(range(d), repeat=2 * m):
        e = np.ones((1, 1))
        for s in range(m):
            unit = np.zeros((d, d))
            unit[labels[2 * s], labels[2 * s + 1]] = 1.0
            e = np.kron(e, unit)
        total += abs(np.trace(e.conj().T @ matrix))
    return total


def product_basis_l1(matrix, d, bases):
    """Sum of |<e_1 (x) ... (x) e_m, V>| over the product basis whose slot-s
    elements are the columns of the d^2 x d^2 unitary bases[s], each column
    read row-major as a d x d matrix; identities give the matrix units."""
    m = len(bases)
    coeffs = np.asarray(matrix).reshape((d,) * 2 * m)
    coeffs = coeffs.transpose([x for s in range(m) for x in (s, m + s)]).reshape((d * d,) * m)
    for s, u in enumerate(bases):
        coeffs = np.moveaxis(np.tensordot(coeffs, u.conj(), axes=([s], [0])), -1, s)
    return float(np.sum(np.abs(coeffs)))


def literal_mean_field_rhs(gamma, spec):
    """-i [V1, g] - i sum_m tr_last[V^(m), g^(x m)]/(m-1)! with explicit kron."""
    d = spec.d
    out = np.zeros((d, d), dtype=np.complex128)
    one = spec.terms.get(1)
    if one is not None:
        out += one @ gamma - gamma @ one
    for m in sorted(spec.terms):
        if m == 1:
            continue
        v = spec.terms[m]
        g_m = gamma
        for _ in range(m - 1):
            g_m = np.kron(g_m, gamma)
        comm = v @ g_m - g_m @ v
        out += trace_out_last(comm, d, m, m - 1) / math.factorial(m - 1)
    return -1j * out


def rk4_evolve(rhs, y0, t_end, n_steps):
    """Classical fixed-step 4th-order reference integrator."""
    y = np.array(y0, dtype=np.complex128)
    dt = t_end / n_steps
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + dt / 2 * k1)
        k3 = rhs(y + dt / 2 * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def variational_trace_distance(rho, sigma):
    """sup over unit-norm Hermitian J of |tr J(rho - sigma)|, via the sign operator."""
    delta = np.asarray(rho) - np.asarray(sigma)
    w, v = np.linalg.eigh(delta)
    j = (v * np.sign(w)) @ v.conj().T
    return float(abs(np.trace(j @ delta)))
