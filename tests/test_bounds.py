import math

import numpy as np
import pytest

from bosonlab import (
    BoundConstants,
    DensityMatrix,
    commutator_growth_bound,
    correlation_gap_bound,
    mean_field_error_bound,
    pure_state_density,
    trace_distance,
)

from .conftest import substream
from . import oracles


def _density(rng, d, order=1):
    return DensityMatrix(order, d, oracles.rand_density(rng, d**order))


class TestTraceDistance:
    def test_identical_states_give_zero(self, rng):
        gamma = _density(rng, 3)
        assert trace_distance(gamma, gamma) == 0.0

    def test_orthogonal_pure_states_give_two(self):
        a = pure_state_density(np.array([1.0, 0.0]))
        b = pure_state_density(np.array([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(2.0, abs=1e-14)

    def test_matches_variational_oracle(self):
        for i in range(8):
            rng = substream(81, "dist", i)
            d = int(rng.integers(2, 5))
            a, b = _density(rng, d), _density(rng, d)
            expected = oracles.variational_trace_distance(a.matrix, b.matrix)
            assert trace_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            trace_distance(_density(rng, 2), _density(rng, 3))
        with pytest.raises(ValueError):
            trace_distance(_density(rng, 2, order=1), _density(rng, 2, order=2))


class TestMeanFieldErrorBound:
    CONSTS = BoundConstants(sum_l1_v=2.0, sum_l2_v=4.0, vtilde=2.0, lambda_v=18.0, m_max=2)

    def test_zero_at_time_zero(self):
        assert mean_field_error_bound(self.CONSTS, 50, 0.0) == 0.0

    def test_frozen_reference_value(self):
        # (2^3/100) * 18 * (e^(4*2*0.25) - 1), evaluated independently
        value = mean_field_error_bound(self.CONSTS, 100, 0.25)
        assert value == pytest.approx(9.200240782460137, rel=1e-12)
        assert value == pytest.approx(1.44 * math.expm1(2.0), rel=1e-12)

    def test_zero_without_interactions(self):
        consts = BoundConstants(0.0, 0.0, 0.0, 0.0, 1)
        for t in (0.0, 0.5, 3.0):
            assert mean_field_error_bound(consts, 10, t) == 0.0

    def test_decreases_with_n(self):
        assert mean_field_error_bound(self.CONSTS, 200, 1.0) == pytest.approx(
            mean_field_error_bound(self.CONSTS, 100, 1.0) / 2
        )

    def test_overflow_gives_infinite_bound(self):
        # e^(4*2*88) still fits a double, e^(4*2*1000) does not
        assert mean_field_error_bound(self.CONSTS, 100, 88.0) == 2**3 / 100 * 18.0 * math.expm1(704.0)
        assert mean_field_error_bound(self.CONSTS, 100, 1000.0) == math.inf


class TestCommutatorGrowthBound:
    CONSTS = BoundConstants(sum_l1_v=2.0, sum_l2_v=4.0, vtilde=2.0, lambda_v=18.0, m_max=2)

    def test_zero_at_time_zero(self):
        assert commutator_growth_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 0.0) == 0.0

    def test_frozen_reference_value(self):
        # (4/8) * (e^(2*2*0.5) - 1)
        value = commutator_growth_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 0.5)
        assert value == pytest.approx(3.194528049465325, rel=1e-12)

    def test_linear_in_subset_sizes(self):
        one = commutator_growth_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 0.7)
        assert commutator_growth_bound(2, 1, 1.0, 1.0, self.CONSTS, 8, 0.7) == pytest.approx(2 * one)
        assert commutator_growth_bound(1, 3, 1.0, 1.0, self.CONSTS, 8, 0.7) == pytest.approx(3 * one)

    def test_monotone_in_time(self):
        values = [
            commutator_growth_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, t)
            for t in np.linspace(0, 2, 9)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            commutator_growth_bound(0, 1, 1.0, 1.0, self.CONSTS, 8, 0.5)
        with pytest.raises(ValueError):
            commutator_growth_bound(1, 1, -1.0, 1.0, self.CONSTS, 8, 0.5)
        with pytest.raises(ValueError):
            commutator_growth_bound(1, 1, 1.0, 1.0, self.CONSTS, 0, 0.5)

    def test_overflow_gives_infinite_bound(self):
        assert commutator_growth_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 176.0) == 4.0 / 8 * math.expm1(704.0)
        assert commutator_growth_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 1000.0) == math.inf
        assert commutator_growth_bound(1, 1, 0.0, 1.0, self.CONSTS, 8, 1000.0) == 0.0


class TestCorrelationGapBound:
    CONSTS = BoundConstants(sum_l1_v=2.0, sum_l2_v=4.0, vtilde=2.0, lambda_v=18.0, m_max=2)

    def test_zero_at_time_zero(self):
        assert correlation_gap_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 0.0) == 0.0

    def test_frozen_reference_value(self):
        # (16/8) * (e^(4*2*0.25) - 1)
        value = correlation_gap_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 0.25)
        assert value == pytest.approx(12.7781121978613, rel=1e-12)

    def test_is_quadrupled_commutator_bound_at_doubled_rate(self):
        for t in (0.1, 0.4, 1.0):
            gap = correlation_gap_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, t)
            comm = commutator_growth_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 2 * t)
            assert gap == pytest.approx(4 * comm, rel=1e-12)

    def test_monotone_in_time(self):
        values = [
            correlation_gap_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, t)
            for t in np.linspace(0, 1.5, 7)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_overflow_gives_infinite_bound(self):
        assert correlation_gap_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 88.0) == 16.0 / 8 * math.expm1(704.0)
        assert correlation_gap_bound(1, 1, 1.0, 1.0, self.CONSTS, 8, 1000.0) == math.inf
        assert correlation_gap_bound(1, 1, 1.0, 0.0, self.CONSTS, 8, 1000.0) == 0.0
