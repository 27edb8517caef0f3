"""Independent recomputation of the smallest-N rows of each workload.

Nothing here calls bosonlab.  The symmetric-sector Hamiltonian is assembled
from explicit ladder-operator matrices, the exact state comes from
``scipy.linalg.expm``, reduced density matrices are inner products of
annihilated states, the Hartree flow is a separate high-order ODE solve of
the one-particle Schrodinger form, and the ``lr`` rows use a full-space
Hamiltonian built from Kronecker products of the potentials' operator
Schmidt factors.  The gate
compares numbers to a tolerance, never output bytes, so a later propagator
that changes the last bits still passes.
"""

import csv
import hashlib
import math
from itertools import combinations, combinations_with_replacement

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

TOLERANCE = 1e-10


def _matrix(pairs):
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def _potentials(config):
    terms = config["spec"]["terms"]
    return _matrix(terms["1"]), _matrix(terms["2"])


def _unit_hermitian_stream(seed, purpose, index, dim):
    """The observable sampler of the determinism contract: a Philox stream
    keyed by (seed, sha256 of "purpose:index"), Hermitian part of a complex
    Gaussian matrix, unit spectral norm."""
    word = int.from_bytes(hashlib.sha256(f"{purpose}:{index}".encode()).digest()[:8], "big")
    key = np.array([seed % 2**64, word], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    return h / np.linalg.norm(h, 2)


# --------------------------------------------------------------------------
# symmetric sector from ladder operators


def _occupations(d, n):
    out = []
    for modes in combinations_with_replacement(range(d), n):
        occ = [0] * d
        for q in modes:
            occ[q] += 1
        out.append(tuple(occ))
    return out


class _Sector:
    """Occupation bases for N, N-1, ..., 0 particles and the annihilators
    a_q mapping the N-particle sector to the (N-1)-particle one."""

    def __init__(self, d, n):
        self.d = d
        self.n = n
        self.bases = {k: _occupations(d, k) for k in range(n + 1)}
        self._lower = {}

    def annihilator(self, q, n):
        if (q, n) not in self._lower:
            target = {occ: i for i, occ in enumerate(self.bases[n - 1])}
            a = np.zeros((len(target), len(self.bases[n])))
            for j, occ in enumerate(self.bases[n]):
                if occ[q]:
                    lowered = list(occ)
                    lowered[q] -= 1
                    a[target[tuple(lowered)], j] = math.sqrt(occ[q])
            self._lower[(q, n)] = a
        return self._lower[(q, n)]

    def chains(self, vectors, order):
        """a_{i_1} .. a_{i_order} applied to each column block, for every
        index tuple i in row-major (slot 1 most significant) order."""
        out = []
        for idx in np.ndindex(*(self.d,) * order):
            v = vectors
            for level, q in enumerate(idx):
                v = self.annihilator(q, self.n - level) @ v
            out.append(v)
        return np.stack(out)

    def hamiltonian(self, v1, v2):
        dim = len(self.bases[self.n])
        eye = np.eye(dim)
        h = np.zeros((dim, dim), dtype=np.complex128)
        for order, vmat, weight in ((1, v1, 1.0), (2, v2, 1.0 / (2 * self.n))):
            chain = self.chains(eye, order).astype(np.complex128)  # (d^m, D', D)
            # sum_{i,j} V_ij (a_i)^dagger a_j, with weight N^(1-m)/m!
            h += weight * np.einsum("ij,ikx,jky->xy", vmat, chain.conj(), chain)
        return (h + h.conj().T) / 2

    def product_state(self, phi):
        amps = []
        for occ in self.bases[self.n]:
            mult = math.factorial(self.n)
            for k in occ:
                mult //= math.factorial(k)
            amps.append(math.sqrt(mult) * np.prod([phi[q] ** k for q, k in enumerate(occ)]))
        return np.asarray(amps, dtype=np.complex128)

    def rdm(self, psi, k):
        w = self.chains(psi, k)  # (d^k, D_{N-k})
        return math.factorial(self.n - k) / math.factorial(self.n) * (w @ w.conj().T)


def _exact_states(config, n):
    v1, v2 = _potentials(config)
    sector = _Sector(config["spec"]["d"], n)
    h = sector.hamiltonian(v1, v2)
    psi0 = sector.product_state(_matrix(config["initial_phi"]))
    return sector, [expm(-1j * t * h) @ psi0 for t in config["time_grid"]]


def _hartree_states(config):
    """One-particle Hartree orbital from i phi' = h(|phi><phi|) phi, with
    h(g)_ab = V1_ab + sum_ij V2[(a,i),(b,j)] g_ji."""
    v1, v2 = _potentials(config)
    d = config["spec"]["d"]
    v4 = v2.reshape(d, d, d, d)

    def rhs(_, y):
        phi = y[:d] + 1j * y[d:]
        h = v1 + np.einsum("aibj,j,i->ab", v4, phi, phi.conj())
        dphi = -1j * (h @ phi)
        return np.concatenate([dphi.real, dphi.imag])

    phi0 = _matrix(config["initial_phi"])
    sol = solve_ivp(
        rhs,
        (0.0, config["time_grid"][-1]),
        np.concatenate([phi0.real, phi0.imag]),
        method="DOP853",
        t_eval=config["time_grid"],
        rtol=1e-13,
        atol=1e-14,
    )
    phis = sol.y[:d].T + 1j * sol.y[d:].T
    return [np.outer(p, p.conj()) for p in phis]


def _converge_rows(config):
    n = config["n_values"][0]
    sector, states = _exact_states(config, n)
    hartree = _hartree_states(config)
    return {
        (n, t): float(np.linalg.svd(sector.rdm(psi, 1) - g, compute_uv=False).sum())
        for t, psi, g in zip(config["time_grid"], states, hartree)
    }


def _corr_rows(config):
    n = config["n_values"][0]
    m_a, m_b = config["obs_m"], config["obs_n"]
    d = config["spec"]["d"]
    sector, states = _exact_states(config, n)
    out = {}
    for t, psi in zip(config["time_grid"], states):
        g_a, g_b, g_ab = sector.rdm(psi, m_a), sector.rdm(psi, m_b), sector.rdm(psi, m_a + m_b)
        for s in range(config["n_samples"]):
            a = _unit_hermitian_stream(config["seed"], "corr:a", s, d**m_a)
            b = _unit_hermitian_stream(config["seed"], "corr:b", s, d**m_b)
            gap = np.trace(np.kron(a, b) @ (g_ab - np.kron(g_a, g_b)))
            out[(n, s, t)] = float(abs(gap))
    return out


# --------------------------------------------------------------------------
# full tensor space from Kronecker products


def _on_sites(ops, d, n):
    """Kronecker product with ops[site] on the given sites, identity elsewhere."""
    out = np.ones((1, 1), dtype=np.complex128)
    for site in range(n):
        out = np.kron(out, ops.get(site, np.eye(d)))
    return out


def _fullspace_hamiltonian(v1, v2, d, n):
    # operator Schmidt form V2 = sum_k A_k (x) B_k, from an SVD of the
    # realigned matrix R[(a,b),(c,e)] = V2[(a,c),(b,e)]
    realigned = v2.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    left, sing, right = np.linalg.svd(realigned)
    factors = [
        (sing[k] * left[:, k].reshape(d, d), right[k].reshape(d, d))
        for k in range(d * d)
        if sing[k] > 0
    ]
    h = sum(_on_sites({i: v1}, d, n) for i in range(n))
    for i, j in combinations(range(n), 2):
        for a_k, b_k in factors:
            h += _on_sites({i: a_k, j: b_k}, d, n) / n
    return (h + h.conj().T) / 2


def _lr_rows(config):
    n = config["n_values"][0]
    if (config["obs_m"], config["obs_n"]) != (1, 1):
        raise ValueError("the lr oracle covers one-particle observables only")
    d = config["spec"]["d"]
    v1, v2 = _potentials(config)
    h = _fullspace_hamiltonian(v1, v2, d, n)
    heisenberg = [expm(1j * t * h) for t in config["time_grid"]]
    out = {}
    for s in range(config["n_samples"]):
        a = _on_sites({1: _unit_hermitian_stream(config["seed"], "lr:a", s, d)}, d, n)
        b = _on_sites({0: _unit_hermitian_stream(config["seed"], "lr:b", s, d)}, d, n)
        for t, u in zip(config["time_grid"], heisenberg):
            b_t = u @ b @ u.conj().T
            out[(n, s, t)] = float(np.linalg.norm(a @ b_t - b_t @ a, 2))
    return out


# scenario -> (oracle, CSV columns forming the row key, measured column)
_CHECKS = {
    "converge": (_converge_rows, ("N", "t"), "trace_distance"),
    "corr": (_corr_rows, ("N", "sample", "t"), "lhs"),
    "lr": (_lr_rows, ("N", "sample", "t"), "lhs"),
}


def check(config, csv_path):
    """Compare the smallest-N rows of a program CSV with the oracle.

    Returns (rows_checked, worst_abs_error, problems); an empty problem list
    means every expected row was present and within TOLERANCE.
    """
    oracle, key_cols, value_col = _CHECKS[config["scenario"]]
    expected = oracle(config)
    seen = {}
    with open(csv_path, encoding="utf-8", newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    for row in csv.DictReader(lines):
        if row.get("kind", "point") != "point" or int(row["N"]) != config["n_values"][0]:
            continue
        key = tuple(float(row[c]) if c == "t" else int(row[c]) for c in key_cols)
        seen[key] = float(row[value_col])
    problems = []
    worst = 0.0
    for key, want in expected.items():
        if key not in seen:
            problems.append(f"row {key} missing")
            continue
        err = abs(seen[key] - want)
        worst = max(worst, err)
        if not err <= TOLERANCE:
            problems.append(f"row {key}: {value_col} {seen[key]!r} vs oracle {want!r}")
    return len(expected), worst, problems
