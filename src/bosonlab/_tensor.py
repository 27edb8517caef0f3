"""Dense tensor-product helpers shared across modules.

Index convention everywhere: slot 1 is the most significant factor of the
row-major tensor-product index, matching ``np.kron`` argument order.
"""

import numpy as np


def partial_trace_last(matrix, d, n_slots, n_traced):
    """Trace out the trailing n_traced slots of an n_slots-slot operator;
    with none traced, the operator itself, not a copy."""
    if not n_traced:
        return matrix
    keep = d ** (n_slots - n_traced)
    traced = d**n_traced
    t = np.asarray(matrix).reshape(keep, traced, keep, traced)
    return np.einsum("ajbj->ab", t)


def permute_slots(matrix, d, order, perm):
    """Conjugate an order-slot operator by a permutation of its slots."""
    mat = np.asarray(matrix)
    t = mat.reshape((d,) * (2 * order))
    axes = tuple(perm) + tuple(order + p for p in perm)
    return t.transpose(axes).reshape(mat.shape)


def embed_on_sites(matrix, sites, d, n_slots):
    """Extend an operator to n_slots slots, acting on `sites` (0-based, in
    the order of the operator's own slots) and as identity elsewhere."""
    cur = list(sites) + [q for q in range(n_slots) if q not in sites]
    full = np.kron(np.asarray(matrix, dtype=np.complex128), np.eye(d ** (n_slots - len(sites))))
    return permute_slots(full, d, n_slots, [cur.index(q) for q in range(n_slots)])
