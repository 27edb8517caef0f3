from dataclasses import fields

import numpy as np
import pytest

from bosonlab import (
    BoundConstants,
    HamiltonianSpec,
    bound_constants,
    operator_norm,
    permute_slots,
    slot_symmetrize,
    validate_potential,
    vtilde,
)
from bosonlab.operators import VTILDE_STRATEGIES

from .conftest import SX, SZ, random_spec, substream
from . import oracles


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal_picks_largest_magnitude(self):
        assert operator_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0)

    def test_zz_has_unit_norm(self):
        assert operator_norm(np.kron(SZ, SZ)) == pytest.approx(1.0)


def test_permute_slots_swaps_kron_factors(rng):
    a = oracles.rand_herm(rng, 3)
    b = oracles.rand_herm(rng, 3)
    swapped = permute_slots(np.kron(a, b), 3, 2, (1, 0))
    np.testing.assert_allclose(swapped, np.kron(b, a), atol=1e-14)


def test_permute_slots_matches_permutation_conjugation(rng):
    mat = oracles.rand_herm(rng, 8)
    perm = (2, 0, 1)
    p = oracles.permutation_operator(2, 3, perm)
    np.testing.assert_allclose(permute_slots(mat, 2, 3, perm), p.T @ mat @ p, atol=1e-13)


def test_slot_symmetrize_output_is_invariant_and_idempotent(rng):
    mat = oracles.rand_herm(rng, 8)
    sym = slot_symmetrize(mat, 2, 3)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        np.testing.assert_allclose(permute_slots(sym, 2, 3, perm), sym, atol=1e-13)
    np.testing.assert_allclose(slot_symmetrize(sym, 2, 3), sym, atol=1e-13)


class TestValidatePotential:
    def test_zz_is_clean(self):
        assert validate_potential(np.kron(SZ, SZ), 2, 2) == []

    def test_asymmetric_term_is_reported(self):
        report = validate_potential(np.kron(SX, SZ), 2, 2)
        assert any("not slot-permutation-symmetric" in line for line in report)

    def test_non_hermitian_is_reported(self):
        report = validate_potential(np.array([[0, 1], [0, 0]]), 2, 1)
        assert any("not Hermitian" in line for line in report)

    def test_dimension_mismatch_is_reported(self):
        report = validate_potential(np.eye(3), 2, 2)
        assert report and "dimension mismatch" in report[0]

    def test_non_finite_entries_are_reported(self):
        for bad in (np.nan, np.inf):
            report = validate_potential(np.array([[bad, 0], [0, 0]]), 2, 1)
            assert report == ["non-finite entries"]

    def test_non_square_is_reported(self):
        assert validate_potential(np.zeros((2, 3)), 2, 1) == ["not a square matrix (shape (2, 3))"]
        assert validate_potential(np.zeros(4), 2, 1) == ["not a square matrix (shape (4,))"]


class TestSpecConstruction:
    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="key 0 is not an interaction order >= 1"):
            HamiltonianSpec(1, {0: np.eye(1)})

    @pytest.mark.parametrize("key", ["1", 1.0, True])
    def test_key_must_be_an_int(self, key):
        with pytest.raises(ValueError, match="is not an interaction order"):
            HamiltonianSpec(2, {key: SZ})

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"order-1 potential invalid: not a square matrix"):
            HamiltonianSpec(2, {1: np.zeros((2, 3))})

    def test_key_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order-2 potential invalid: dimension mismatch"):
            HamiltonianSpec(2, {2: SZ})

    def test_terms_are_read_only_complex_arrays(self):
        source = np.kron(SZ, SZ).real.copy()
        spec = HamiltonianSpec(2, {1: [[0, 1], [1, 0]], 2: source})
        for m, v in spec.terms.items():
            assert v.dtype == np.complex128 and v.shape == (2**m, 2**m)
            assert not v.flags.writeable
        source[0, 0] = 5.0  # the spec holds its own copy
        assert spec.terms[2][0, 0] == 1.0

    def test_invalid_term_message_names_the_order(self):
        with pytest.raises(ValueError, match="order-2 potential invalid"):
            HamiltonianSpec(2, {2: np.kron(SX, SZ)})

    def test_max_order_is_the_largest_order_present(self):
        assert HamiltonianSpec(2, {2: np.kron(SZ, SZ)}).max_order == 2
        assert HamiltonianSpec(2, {3: np.eye(8), 1: SX}).max_order == 3
        assert HamiltonianSpec(2, {}).max_order == 1  # no terms: M = 1

    def test_max_order_is_not_settable(self):
        assert [f.name for f in fields(HamiltonianSpec)] == ["d", "terms"]
        with pytest.raises(TypeError):
            HamiltonianSpec(2, 1, {1: SZ})

    def test_no_upper_bound_on_an_order(self):
        # a huge order is refused by its shape, without forming d^order
        with pytest.raises(ValueError, match=r"dimension mismatch \(expected 3\^1000000000, got 2\)"):
            HamiltonianSpec(3, {10**9: np.eye(2)})

    def test_present_and_interaction_orders(self):
        spec = HamiltonianSpec(2, {1: SX, 3: np.kron(SZ, np.kron(SZ, SZ))})
        assert spec.present_orders == (1, 3)
        assert spec.interaction_orders == (3,)


def _haar_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestVtilde:
    def test_single_particle_only_gives_zero(self):
        spec = HamiltonianSpec(2, {1: SZ})
        assert vtilde(spec) == 0.0

    def test_zz_canonical_value(self):
        # basis-expansion oracle: four matrix-unit coefficients of magnitude 1
        spec = HamiltonianSpec(2, {2: np.kron(SZ, SZ)})
        assert vtilde(spec, "canonical") == pytest.approx(4.0, abs=1e-12)

    def test_canonical_matches_enumeration_oracle(self, rng):
        for d, orders in ((2, (1, 2)), (3, (2,)), (2, (2, 3))):
            spec = random_spec(rng, d, orders, unit_norm=False)
            expected = max(
                oracles.coefficient_l1(spec.terms[m], d, m)
                for m in spec.interaction_orders
            )
            assert vtilde(spec, "canonical") == pytest.approx(expected, rel=1e-12)

    def test_zz_ceiling_is_attained(self):
        # d^m ||V||_F = 4 * 2; per-slot u = exp(-i pi/8 sigma_y) turns sigma_z
        # into (sigma_z + sigma_x)/sqrt(2), whose entries sum to 2 sqrt(2) in magnitude
        zz = np.kron(SZ, SZ)
        assert vtilde(HamiltonianSpec(2, {2: zz}), "ceiling") == 8.0
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        u = np.array([[c, -s], [s, c]])
        conjugation = np.kron(u, u.conj())
        rotated = oracles.product_basis_l1(zz, 2, [conjugation, conjugation])
        assert rotated == pytest.approx(8.0, rel=1e-12)

    def test_ceiling_bounds_every_product_basis(self):
        # conjugated matrix units u E_ab u^+ (the unitary u (x) conj(u) on
        # row-major vec) and arbitrary orthonormal bases of each slot
        for seed, (d, orders) in enumerate(((2, (1, 2)), (3, (2,)), (2, (2, 3)))):
            rng = substream(seed, "vt-ceiling")
            spec = random_spec(rng, d, orders, unit_norm=False)
            ceiling = vtilde(spec, "ceiling")
            for m in spec.interaction_orders:
                mat = spec.terms[m]
                units = oracles.product_basis_l1(mat, d, [np.eye(d * d)] * m)
                assert units == pytest.approx(oracles.coefficient_l1(mat, d, m), rel=1e-12)
                for draw in range(40):
                    if draw % 2:
                        us = [_haar_unitary(rng, d) for _ in range(m)]
                        bases = [np.kron(u, u.conj()) for u in us]
                    else:
                        bases = [_haar_unitary(rng, d * d) for _ in range(m)]
                    assert oracles.product_basis_l1(mat, d, bases) <= ceiling * (1 + 1e-12)

    def test_ceiling_dominates_canonical(self):
        for seed, (d, orders) in enumerate(((2, (1, 2)), (3, (2,)), (2, (2, 3)), (3, (1, 2)))):
            spec = random_spec(substream(seed, "vt"), d, orders, unit_norm=False)
            assert vtilde(spec, "ceiling") >= vtilde(spec, "canonical")

    def test_unknown_strategy_rejected(self):
        spec = HamiltonianSpec(2, {1: SZ})
        with pytest.raises(ValueError, match="strategy"):
            vtilde(spec, "exhaustive")


class TestBoundConstants:
    @pytest.mark.parametrize("strategy, vt, lam", [("canonical", 4.0, 34.0),
                                                   ("ceiling", 8.0, 66.0)])
    def test_single_pair_term(self, strategy, vt, lam):
        spec = HamiltonianSpec(2, {2: np.kron(SZ, SZ)})
        consts = bound_constants(spec, strategy)
        assert consts.sum_l1_v == pytest.approx(2.0)
        assert consts.sum_l2_v == pytest.approx(4.0)
        assert consts.vtilde == pytest.approx(vt)
        assert consts.lambda_v == pytest.approx(lam)  # (16 vt + 4) / 2
        assert consts.m_max == 2

    def test_no_interactions_all_zero(self):
        spec = HamiltonianSpec(2, {1: SX})
        consts = bound_constants(spec)
        assert consts.sum_l1_v == 0.0
        assert consts.sum_l2_v == 0.0
        assert consts.vtilde == 0.0
        assert consts.lambda_v == 0.0

    @pytest.mark.parametrize("strategy", VTILDE_STRATEGIES)
    def test_lambda_formula_on_random_specs(self, rng, strategy):
        spec = random_spec(rng, 2, (1, 2, 3), unit_norm=False)
        vt = vtilde(spec, strategy)
        consts = bound_constants(spec, strategy)
        s1 = sum(m * operator_norm(spec.terms[m]) for m in (2, 3))
        s2 = sum(m * m * operator_norm(spec.terms[m]) for m in (2, 3))
        assert consts.sum_l1_v == pytest.approx(s1, rel=1e-12)
        assert consts.sum_l2_v == pytest.approx(s2, rel=1e-12)
        assert consts.vtilde == vt
        assert consts.lambda_v == pytest.approx((16 * vt + s2) / s1, rel=1e-12)

    def test_default_is_the_ceiling(self, rng):
        spec = random_spec(rng, 2, (1, 2), unit_norm=False)
        assert bound_constants(spec) == bound_constants(spec, "ceiling")

    def test_frozen(self):
        consts = BoundConstants(1.0, 2.0, 3.0, 4.0, 2)
        with pytest.raises(AttributeError):
            consts.sum_l1_v = 5.0
