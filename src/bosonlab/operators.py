"""Interaction potentials and the scalar constants feeding the error bounds.

An order-m interaction is a Hermitian matrix on m single-particle slots that
is invariant under permuting the slots.  A :class:`HamiltonianSpec` collects
one such term per order together with the single-particle dimension; it is
the single source of truth for every dynamical routine in the package.

The bound evaluators in :mod:`bosonlab.bounds` consume three scalars derived
here: the order-weighted spectral-norm sums and ``vtilde``.  The definition
of vtilde assumed here (arXiv:2006.05486, whose abstract in PAPER.md does not
state it) is the supremum, over orthonormal bases {e_i} of each slot's d x d
matrices, of sum |c_a| in V^(m) = sum_a c_a e_a1 (x) ... (x) e_am.  It lies in
the bracket [canonical, ceiling].  ``canonical`` takes one basis, the matrix
units |a><b|, whose coefficients are the entries of V.  ``ceiling`` is
d^m ||V||_F: the d^(2m) product units of any orthonormal product basis are
Hilbert-Schmidt orthonormal, so Cauchy-Schwarz caps the sum; sigma_z (x)
sigma_z attains it (8, against canonical 4).  Were vtilde instead an infimum
over decompositions, both ends would bound it from above, so the ceiling is
an upper value under either reading: every run's bound uses it, and the
bounds table reports both ends.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._tensor import permute_slots

# the tolerance of every Hermiticity and slot-symmetry check on an input matrix
HERMITIAN_ATOL = 1e-12

VTILDE_STRATEGIES = ("canonical", "ceiling")  # the ends of the vtilde bracket, lower first


def operator_norm(matrix):
    """Spectral norm: the largest singular value."""
    return float(np.linalg.norm(np.asarray(matrix), 2))


def slot_symmetrize(matrix, d, order):
    """Project an operator onto its slot-permutation-symmetric part."""
    mat = np.asarray(matrix, dtype=np.complex128)
    perms = list(permutations(range(order)))
    acc = np.zeros_like(mat)
    for p in perms:
        acc += permute_slots(mat, d, order, p)
    return acc / len(perms)


def validate_potential(matrix, d, order):
    """Return a list of human-readable invariant violations (empty = valid)."""
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return [f"not a square matrix (shape {mat.shape})"]
    if not np.all(np.isfinite(mat)):
        return ["non-finite entries"]  # every deviation below would read nan
    report = []
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_dev > HERMITIAN_ATOL:
        report.append(f"not Hermitian (max deviation {herm_dev:.3e})")
    # no matrix side reaches 2^64, so d^order is never formed past that exponent
    if mat.shape[0] != d ** min(order, 64):
        report.append(f"dimension mismatch (expected {d}^{order}, got {mat.shape[0]})")
        return report  # slot checks need the tensor shape
    if order >= 2:
        # invariance under adjacent transpositions implies the full group
        sym_dev = 0.0
        for s in range(order - 1):
            perm = list(range(order))
            perm[s], perm[s + 1] = perm[s + 1], perm[s]
            swapped = permute_slots(mat, d, order, perm)
            sym_dev = max(sym_dev, float(np.max(np.abs(swapped - mat))))
        if sym_dev > HERMITIAN_ATOL:
            report.append(f"not slot-permutation-symmetric (max deviation {sym_dev:.3e})")
    return report


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Single-particle dimension d and the terms.

    ``terms`` maps the order m to V^(m), a d^m x d^m matrix; orders may be
    absent (treated as zero).  Construction validates every term and stores
    it as a read-only complex128 array, so holding a spec means holding a
    physically valid model.
    """

    d: int
    terms: dict

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("single-particle dimension must be >= 1")
        terms = dict(self.terms)
        for m, v in terms.items():
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise ValueError(f"terms key {m!r} is not an interaction order >= 1")
            mat = np.array(v, dtype=np.complex128)
            violations = validate_potential(mat, self.d, m)
            if violations:
                raise ValueError(f"order-{m} potential invalid: " + "; ".join(violations))
            mat.setflags(write=False)
            terms[m] = mat
        object.__setattr__(self, "terms", terms)

    @property
    def present_orders(self):
        return tuple(sorted(self.terms))

    @property
    def max_order(self):
        """M, the largest order present; 1 for a spec with no terms."""
        return max(self.present_orders, default=1)

    @property
    def interaction_orders(self):
        """Orders >= 2 that actually carry a term."""
        return tuple(m for m in sorted(self.terms) if m >= 2)


def vtilde(spec, strategy="ceiling"):
    """Largest coefficient-magnitude sum over interaction orders >= 2, at the
    "canonical" or the "ceiling" end of the bracket in the module docstring.
    A spec with no order >= 2 term gives 0."""
    if strategy not in VTILDE_STRATEGIES:
        raise ValueError(f"unknown vtilde strategy {strategy!r}")
    # canonical: matrix-unit coefficients are the entries; ceiling: Cauchy-Schwarz
    # over the D^2 orthonormal product units, D = d^m the side of the matrix
    sums = [
        np.sum(np.abs(v)) if strategy == "canonical" else v.shape[0] * np.linalg.norm(v)
        for v in (spec.terms[m] for m in spec.interaction_orders)
    ]
    return float(max(sums, default=0.0))


@dataclass(frozen=True)
class BoundConstants:
    """Scalar inputs of the bound evaluators.

    sum_l1_v = sum over orders l>=2 of l * ||V^(l)||, sum_l2_v likewise with
    l^2, vtilde the coefficient sum described above, and
    lambda_v = (16 vtilde + sum_l2_v) / sum_l1_v (0 when sum_l1_v is 0).
    """

    sum_l1_v: float
    sum_l2_v: float
    vtilde: float
    lambda_v: float
    m_max: int


def bound_constants(spec, strategy="ceiling"):
    """Assemble the bound constants of a spec, vtilde at the given end of its bracket."""
    vt = vtilde(spec, strategy)
    s1 = 0.0
    s2 = 0.0
    for m in spec.interaction_orders:
        norm = operator_norm(spec.terms[m])
        s1 += m * norm
        s2 += m * m * norm
    lam = (16.0 * vt + s2) / s1 if s1 > 0.0 else 0.0
    return BoundConstants(s1, s2, vt, lam, spec.max_order)
