"""Distance measures, the closed-form bound evaluators, and the telescoping
residual used to sanity-check RDM/mean-field consistency.

Conventions: trace distance is the unhalved trace norm of the difference
(range [0, 2]); every bound evaluator returns exactly 0 at t = 0 and is
non-decreasing in t and non-increasing in N.
"""

import math

import numpy as np

from ._tensor import partial_trace_last, tensor_power


def trace_distance(rho, sigma):
    """Sum of singular values of rho - sigma (unhalved trace norm)."""
    if rho.order != sigma.order or rho.d != sigma.d:
        raise ValueError(
            f"mismatched density matrices: order {rho.order} (d={rho.d}) vs "
            f"order {sigma.order} (d={sigma.d})"
        )
    return float(np.linalg.svd(rho.matrix - sigma.matrix, compute_uv=False).sum())


def mean_field_error_bound(constants, n_particles, t):
    """Closed-form bound on the trace distance between the exact one-particle
    RDM and the mean-field evolution: (m_max^3/N) lambda_v (e^{4 s1 t} - 1)."""
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if t < 0:
        raise ValueError("t must be non-negative")
    return _grow(
        constants.m_max**3 / n_particles * constants.lambda_v, 4.0 * constants.sum_l1_v * t
    )


def commutator_growth_bound(m, n, norm_a, norm_b, constants, n_particles, t):
    """Bound on ||[A, B(t)]|| for disjoint supports of sizes m and n:
    (4 m n |A| |B| / N) (e^{2 s1 t} - 1)."""
    _check_pair_args(m, n, norm_a, norm_b, n_particles, t)
    return _grow(4.0 * m * n * norm_a * norm_b / n_particles, 2.0 * constants.sum_l1_v * t)


def correlation_gap_bound(m, n, norm_a, norm_b, constants, n_particles, t):
    """Bound on the product-expectation gap |<AB> - <A><B>| for initially
    uncorrelated product states: (16 m n |A| |B| / N) (e^{4 s1 t} - 1)."""
    _check_pair_args(m, n, norm_a, norm_b, n_particles, t)
    return _grow(16.0 * m * n * norm_a * norm_b / n_particles, 4.0 * constants.sum_l1_v * t)


def _grow(prefactor, exponent):
    """prefactor * (e^exponent - 1), or inf where e^exponent overflows: an
    infinite bound is still a true upper bound (0 for a zero prefactor)."""
    try:
        return prefactor * math.expm1(exponent)
    except OverflowError:
        return math.inf if prefactor else 0.0


def _check_pair_args(m, n, norm_a, norm_b, n_particles, t):
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if norm_a < 0 or norm_b < 0:
        raise ValueError("observable norms must be non-negative")
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if t < 0:
        raise ValueError("t must be non-negative")


def telescoping_residual(gamma, hartree_gamma, m):
    """Max-entry residual of the order-(m+1) telescoping identity.

    ``gamma`` is an RDM of one fixed state of order at least m+1, read
    through its marginals of order l = 0 .. m+1 (order 0 being the scalar
    1); ``hartree_gamma`` is any one-particle density matrix.  The identity
    rewrites gamma^(m+1) - g^(x (m+1)) as nearest-neighbour factorization
    defects plus one-particle defects, and holds exactly for any consistent
    family, so the residual is pure floating-point noise (<= ~1e-12 at desk
    scale).
    """
    if not 1 <= m < gamma.order:
        raise ValueError(f"m = {m} is not in [1, {gamma.order - 1}] for an order-{gamma.order} RDM")
    if hartree_gamma.order != 1 or hartree_gamma.d != gamma.d:
        raise ValueError(f"hartree_gamma must be an order-1 density matrix with d = {gamma.d}")
    d, order = gamma.d, gamma.order
    a = [partial_trace_last(gamma.matrix, d, order, order - l) for l in range(m + 2)]
    g1 = a[1]
    mf = hartree_gamma.matrix
    powers = [tensor_power(mf, j) for j in range(m + 2)]
    lhs = a[m + 1] - powers[m + 1]
    rhs = np.zeros_like(lhs)
    for l in range(1, m + 1):
        rhs += np.kron(a[l + 1] - np.kron(a[l], g1), powers[m - l])
    for l in range(m + 1):
        rhs += np.kron(a[l], np.kron(g1 - mf, powers[m - l]))
    return float(np.max(np.abs(lhs - rhs)))
