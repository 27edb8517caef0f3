"""Hot loops: occupation-walking operator assembly and RDM contraction.

Both kernels apply ladder-operator chains to every occupation tuple of the
basis at once, vectorized over basis states with numpy, one (annihilate,
create) index-tuple pair at a time.  Assembly emits the stored entries of
the operator as (row, col, value) triples, so no D x D array is ever
allocated; the RDM contraction returns the small d^k x d^k matrix.  Inputs
are plain arrays; the wrapping modules own all validation.

Encoding: an occupation vector (n_1 .. n_d) with sum N maps to the integer
key sum_i n_i * (N+1)^(d-1-i).  Descending lexicographic tuple order is
descending key order, so lookups are a binary search over the ascending key
array plus an index indirection.
"""

import numpy as np


def decode_digits(d, order):
    """Base-d digit table for every linear index of an order-slot tensor.

    Row ``lin`` holds the slot indices (slot 1 most significant), so
    ``lin = sum_s digits[lin, s] * d**(order-1-s)``.
    """
    table = np.empty((d**order, order), dtype=np.int64)
    for lin in range(d**order):
        rem = lin
        for s in range(order - 1, -1, -1):
            table[lin, s] = rem % d
            rem //= d
    return table


def mbody_triples(occs, keys_asc, pos_asc, base, vmat, digits, scale):
    """(rows, cols, values) of scale * sum <i|V|j> a+_{i_1}..a+_{i_m} a_{j_1}..a_{j_m}:
    at most size * d^(2m) entries, where a repeated (row, col) adds up."""
    n_basis, n_modes = occs.shape
    dim_v, order = digits.shape
    powers = base ** np.arange(n_modes - 1, -1, -1, dtype=np.int64)
    cols = np.arange(n_basis)
    out_rows, out_cols, out_vals = [cols[:0]], [cols[:0]], [np.empty(0, np.complex128)]
    for jt in range(dim_v):
        occ1 = occs.copy()
        f_ann = np.ones(n_basis, dtype=np.float64)
        for s in range(order):
            mode = digits[jt, s]
            f_ann *= occ1[:, mode]
            occ1[:, mode] -= 1
        live = f_ann > 0
        if not live.any():
            continue
        occ1 = occ1[live]
        f_live = f_ann[live]
        col_live = cols[live]
        for it in range(dim_v):
            v = vmat[it, jt]
            if v == 0:
                continue
            occ2 = occ1.copy()
            f_cre = np.ones(occ2.shape[0], dtype=np.float64)
            for s in range(order):
                mode = digits[it, s]
                occ2[:, mode] += 1
                f_cre *= occ2[:, mode]
            out_rows.append(pos_asc[np.searchsorted(keys_asc, occ2 @ powers)])
            out_cols.append(col_live)
            out_vals.append((scale * v) * np.sqrt(f_live * f_cre))
    return np.concatenate(out_rows), np.concatenate(out_cols), np.concatenate(out_vals)


def rdm_matrix(occs, keys_asc, pos_asc, base, amps, digits_sorted, scale):
    n_basis, n_modes = occs.shape
    dim_k, order = digits_sorted.shape
    powers = base ** np.arange(n_modes - 1, -1, -1, dtype=np.int64)
    out = np.zeros((dim_k, dim_k), dtype=np.complex128)
    for a in range(dim_k):
        occ1 = occs.copy()
        f_ann = np.ones(n_basis, dtype=np.float64)
        for s in range(order):
            mode = digits_sorted[a, s]
            f_ann *= occ1[:, mode]
            occ1[:, mode] -= 1
        live = f_ann > 0
        if not live.any():
            continue
        occ1 = occ1[live]
        f_live = f_ann[live]
        amp_live = amps[live]
        for b in range(dim_k):
            occ2 = occ1.copy()
            f_cre = np.ones(occ2.shape[0], dtype=np.float64)
            for s in range(order):
                mode = digits_sorted[b, s]
                occ2[:, mode] += 1
                f_cre *= occ2[:, mode]
            rows = pos_asc[np.searchsorted(keys_asc, occ2 @ powers)]
            vals = amp_live * np.conj(amps[rows]) * np.sqrt(f_live * f_cre)
            out[a, b] = scale * vals.sum()
    return out
