import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bosonlab import (
    DensityMatrix,
    HamiltonianSpec,
    hartree,
    hartree_evolve,
    mean_field_energy,
    pure_state_density,
)
from bosonlab._tensor import partial_trace_last
from bosonlab.experiments import config_from_dict

from .conftest import SX, SZ, random_spec, substream
from . import oracles

ROOT = Path(__file__).resolve().parent.parent


def _mean_field_h(gamma, spec):
    """h(gamma), hermitized from the parts the integrator sums."""
    g = gamma.matrix
    h = sum(hartree._order_parts(g, hartree._contractions(spec))).reshape(g.shape)
    return (h + h.conj().T) / 2


def _hartree_rhs(gamma, spec):
    """-i [h(gamma), gamma], the integrator's right-hand side."""
    return hartree._rhs(gamma.matrix, hartree._contractions(spec))


def _workload(name, seed):
    """The config document perfbench generates for a workload and seed."""
    path = ROOT / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    return workloads.generate(name, seed)


class TestDensityMatrix:
    def test_valid_mixed_state(self, rng):
        gamma = DensityMatrix(1, 3, oracles.rand_density(rng, 3))
        assert gamma.order == 1
        assert np.linalg.eigvalsh(gamma.matrix)[-2] > 1e-3  # rank above one: mixed

    def test_purity_of_pure_state(self):
        gamma = pure_state_density(np.array([0.6, 0.8]))
        assert np.trace(gamma.matrix @ gamma.matrix).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(gamma.matrix), [0.0, 1.0], atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, 2, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, 2, np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(1, 2, np.diag([1.5, -0.5]))

    def test_dimension_must_match_order(self, rng):
        with pytest.raises(ValueError):
            DensityMatrix(2, 2, oracles.rand_density(rng, 3))

    def test_marginal_of_product_is_first_factor(self, rng):
        a, b = oracles.rand_density(rng, 3), oracles.rand_density(rng, 3)
        gamma = DensityMatrix(2, 3, np.kron(a, b))
        np.testing.assert_allclose(partial_trace_last(gamma.matrix, 3, 2, 1), a, atol=1e-14)

    @pytest.mark.parametrize("d, order", [(2, 4), (3, 3)])
    def test_marginals_compose(self, d, order):
        # run_bbgky reads every lower order as a partial trace of one top RDM
        rng = substream(17, "marginal-compose", d)
        g = DensityMatrix(order, d, oracles.rand_density(rng, d**order)).matrix
        for upper in range(order + 1):
            for lower in range(upper + 1):
                np.testing.assert_allclose(
                    partial_trace_last(partial_trace_last(g, d, order, order - upper),
                                       d, upper, upper - lower),
                    partial_trace_last(g, d, order, order - lower),
                    atol=1e-14,
                )

    def test_order_below_one_rejected(self):
        for order in (-1, 0):
            with pytest.raises(ValueError, match="order must be >= 1"):
                DensityMatrix(order, 2, np.eye(1))

    def test_unnormalized_phi_rejected(self):
        with pytest.raises(ValueError):
            pure_state_density(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="norm deviates"):
            pure_state_density(np.array([np.nan, 1.0]))


class TestMeanFieldHamiltonian:
    def test_without_interactions_is_bare_term(self, rng):
        spec = HamiltonianSpec(2, {1: SX})
        gamma = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        np.testing.assert_allclose(_mean_field_h(gamma, spec), SX, atol=1e-14)

    def test_identity_interaction_shifts_by_one(self, rng):
        spec = HamiltonianSpec(2, {1: SX, 2: np.eye(4)})
        gamma = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        np.testing.assert_allclose(
            _mean_field_h(gamma, spec), SX + np.eye(2), atol=1e-13
        )

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_zz_interaction_closed_form(self, p):
        # explicit 4x4 partial trace gives V1 + (2p-1) sigma_z
        spec = HamiltonianSpec(2, {1: SX, 2: np.kron(SZ, SZ)})
        gamma = DensityMatrix(1, 2, np.diag([p, 1.0 - p]).astype(complex))
        h = _mean_field_h(gamma, spec)
        np.testing.assert_allclose(h, SX + (2 * p - 1) * SZ, atol=1e-13)
        brute = SX + oracles.trace_out_last(
            np.kron(SZ, SZ) @ np.kron(np.eye(2), gamma.matrix), 2, 2, 1
        )
        np.testing.assert_allclose(h, brute, atol=1e-13)

    def test_spec_without_terms_gives_zero(self, rng):
        gamma = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        spec = HamiltonianSpec(2, {})
        np.testing.assert_array_equal(_mean_field_h(gamma, spec), np.zeros((2, 2)))
        np.testing.assert_array_equal(_hartree_rhs(gamma, spec), np.zeros((2, 2)))

    @pytest.mark.parametrize("orders", [(3,), (1, 3), (2, 4)])
    def test_orders_with_gaps_match_literal_tensor_form(self, orders):
        # gamma^(x (m-1)) is built up across orders that skip some m
        rng = substream(61, "gapped", orders[-1])
        spec = random_spec(rng, 2, orders, unit_norm=False)
        gamma = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        rhs = oracles.literal_mean_field_rhs(gamma.matrix, spec)
        np.testing.assert_allclose(_hartree_rhs(gamma, spec), rhs, atol=1e-12)

    def test_hermitian_for_higher_orders(self, rng):
        spec = random_spec(rng, 3, (1, 2, 3), unit_norm=False)
        gamma = DensityMatrix(1, 3, oracles.rand_density(rng, 3))
        h = _mean_field_h(gamma, spec)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)


class TestHartreeRhs:
    def test_stationary_when_everything_diagonal(self):
        spec = HamiltonianSpec(2, {1: SZ, 2: np.kron(SZ, SZ)})
        gamma = DensityMatrix(1, 2, np.diag([0.7, 0.3]).astype(complex))
        np.testing.assert_allclose(_hartree_rhs(gamma, spec), 0.0, atol=1e-14)

    def test_traceless(self, rng):
        spec = random_spec(rng, 3, (1, 2), unit_norm=False)
        gamma = DensityMatrix(1, 3, oracles.rand_density(rng, 3))
        assert abs(np.trace(_hartree_rhs(gamma, spec))) < 1e-13

    def test_commutator_form_equals_literal_tensor_form(self):
        # the same derivative, assembled through explicit tensor powers and
        # trailing-slot traces rather than through h(gamma)
        for i in range(10):
            rng = substream(61, "rhs", i)
            d = int(rng.integers(2, 4))
            m_max = int(rng.integers(2, 4))
            spec = random_spec(rng, d, range(1, m_max + 1), unit_norm=False)
            gamma = DensityMatrix(1, d, oracles.rand_density(rng, d))
            lhs = _hartree_rhs(gamma, spec)
            rhs = oracles.literal_mean_field_rhs(gamma.matrix, spec)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMeanFieldEnergy:
    def test_single_particle_expectation(self):
        spec = HamiltonianSpec(2, {1: SZ})
        for p in (0.0, 0.25, 1.0):
            gamma = DensityMatrix(1, 2, np.diag([p, 1.0 - p]).astype(complex))
            assert mean_field_energy(gamma, spec) == pytest.approx(2 * p - 1)

    def test_identity_pair_interaction_gives_half(self, rng):
        spec = HamiltonianSpec(2, {2: np.eye(4)})
        gamma = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        assert mean_field_energy(gamma, spec) == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_the_kronecker_trace(self, d):
        # sum_m tr(V^(m) gamma^(x m)) / m!, each gamma^(x m) formed by np.kron
        rng = substream(74, "energy-kron", d)
        spec = random_spec(rng, d, (1, 2, 3))
        gamma = DensityMatrix(1, d, oracles.rand_density(rng, d))
        expected, power = 0.0, np.ones((1, 1))
        for m in (1, 2, 3):
            power = np.kron(power, gamma.matrix)
            expected += np.trace(spec.terms[m] @ power).real / math.factorial(m)
        assert abs(mean_field_energy(gamma, spec) - expected) <= 1e-14


class TestHartreeEvolve:
    def test_linear_case_matches_conjugation(self, rng):
        spec = random_spec(rng, 2, (1,), unit_norm=False)
        v1 = spec.terms[1]
        gamma0 = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        t = 1.4
        traj = hartree_evolve(gamma0, spec, [t], tol=1e-10)
        w, v = np.linalg.eigh(v1)
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        np.testing.assert_allclose(
            traj.states[0].matrix, u @ gamma0.matrix @ u.conj().T, atol=1e-8
        )

    def test_diagonal_problem_is_stationary(self):
        spec = HamiltonianSpec(2, {1: SZ, 2: np.kron(SZ, SZ)})
        gamma0 = DensityMatrix(1, 2, np.diag([0.8, 0.2]).astype(complex))
        traj = hartree_evolve(gamma0, spec, [0.5, 2.0], tol=1e-10)
        for state in traj.states:
            np.testing.assert_allclose(state.matrix, gamma0.matrix, atol=1e-12)

    def test_matches_fixed_step_reference(self):
        rng = substream(71, "ref")
        spec = random_spec(rng, 2, (1, 2), unit_norm=False)
        gamma0 = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        traj = hartree_evolve(gamma0, spec, [1.0], tol=1e-10)

        def rhs(y):
            return oracles.literal_mean_field_rhs(y, spec)

        reference = oracles.rk4_evolve(rhs, gamma0.matrix, 1.0, 10_000)
        np.testing.assert_allclose(traj.states[0].matrix, reference, atol=1e-7)

    def test_pure_state_stays_pure(self):
        rng = substream(72, "pure")
        spec = random_spec(rng, 3, (1, 2))
        gamma0 = pure_state_density(
            (lambda v: v / np.linalg.norm(v))(
                rng.standard_normal(3) + 1j * rng.standard_normal(3)
            )
        )
        traj = hartree_evolve(gamma0, spec, [0.0, 1.0, 2.0], tol=1e-10)
        g = traj.states[-1].matrix
        assert np.trace(g @ g).real == pytest.approx(1.0, abs=1e-8)

    def test_conserves_trace_energy_spectrum(self):
        rng = substream(73, "cons")
        spec = random_spec(rng, 2, (1, 2, 3), unit_norm=False)
        gamma0 = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        traj = hartree_evolve(gamma0, spec, [0.0, 0.7, 1.5, 2.0], tol=1e-9)
        g0, e0 = gamma0.matrix, mean_field_energy(gamma0, spec)
        w0 = np.linalg.eigvalsh(g0)
        for st in traj.states:
            assert abs(np.trace(st.matrix) - np.trace(g0)) < 1e-9
            assert abs(mean_field_energy(st, spec) - e0) < 1e-7
            assert float(np.max(np.abs(np.linalg.eigvalsh(st.matrix) - w0))) < 1e-7

    def test_grid_alignment_and_initial_state_reuse(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        gamma0 = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        times = [0.0, 0.3, 1.0]
        traj = hartree_evolve(gamma0, spec, times, tol=1e-9)
        assert len(traj.states) == len(times)
        assert traj.states[0] is gamma0

    def test_time_grid_validated(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        gamma0 = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        with pytest.raises(ValueError):
            hartree_evolve(gamma0, spec, [0.5, 0.5])
        with pytest.raises(ValueError):
            hartree_evolve(gamma0, spec, [-1.0, 0.5])
        with pytest.raises(ValueError):
            hartree_evolve(gamma0, spec, [])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                hartree_evolve(gamma0, spec, [0.0, bad])

    @pytest.mark.parametrize("grid, reference", [
        ([0.0, 1e-20, 1.0], [0.0, 1.0]),
        ([0.5, 0.5 + 1e-15, 1.0], [0.5, 1.0]),
        ([1e-300, 1e-200], None),
    ])
    def test_steps_clipped_onto_close_times_never_underflow(self, rng, grid, reference):
        # the config check and evolve_exact admit these grids; a step clipped onto a requested
        # time is as short as the grid asks, so the underflow guard once refused them here
        spec = random_spec(rng, 2, (1, 2))
        gamma0 = pure_state_density(np.array([0.6, 0.8j]))
        states = hartree_evolve(gamma0, spec, grid).states
        assert len(states) == len(grid)
        if reference is not None:  # the close time is one more clipped step on the way
            expected = hartree_evolve(gamma0, spec, reference).states
            for got, want in zip([states[0], states[-1]], expected):
                np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-13)

    def test_step_budget_refuses_huge_time_up_front(self, rng):
        spec = random_spec(rng, 2, (1, 2))  # unit norms: L = 1 + 1/1! = 2
        gamma0 = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        with pytest.raises(ValueError, match="L\\*t = 2e\\+06 > 1000000"):
            hartree_evolve(gamma0, spec, [0.0, 1e6])

    def test_tolerance_validated(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        gamma0 = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        with pytest.raises(ValueError):
            hartree_evolve(gamma0, spec, [1.0], tol=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                hartree_evolve(gamma0, spec, [1.0], tol=bad)

    def test_dimension_mismatch_rejected(self, rng):
        spec = random_spec(rng, 3, (1, 2))
        gamma0 = DensityMatrix(1, 2, oracles.rand_density(rng, 2))
        with pytest.raises(ValueError):
            hartree_evolve(gamma0, spec, [1.0])

    def test_loose_tolerance_failure_names_time_and_tolerance(self):
        # at tol = 1e-6 the state at t = 5 has an eigenvalue of -1.07e-6, past
        # TRAJECTORY_ATOL; the message must say where and at which tol
        config = config_from_dict({**_workload("converge_sector", 7), "n_values": [4, 8],
                                   "time_grid": [0, 5, 10, 20], "integrator_tol": 1e-6})
        gamma0 = pure_state_density(config.initial_phi)
        with pytest.raises(ValueError, match=r"^the mean-field integrator at tol=1e-06 left an "
                           r"invalid state at t=5: not positive semidefinite \(min eigenvalue "
                           r"-\S+\); a smaller tol may fix it$"):
            hartree_evolve(gamma0, config.spec, config.time_grid, config.integrator_tol)
        traj = hartree_evolve(gamma0, config.spec, config.time_grid, 1e-9)
        assert len(traj.states) == 4


class TestStepper:
    @pytest.mark.parametrize(
        "document, steps",
        [
            pytest.param(
                lambda: json.loads((ROOT / "configs" / "converge.json").read_text()),
                15,
                id="converge.json",
            ),
            pytest.param(lambda: _workload("converge_sector", 1), 109, id="converge_sector-seed1"),
            pytest.param(lambda: _workload("converge_sector", 7), 61, id="converge_sector-seed7"),
        ],
    )
    def test_six_rhs_evaluations_per_attempted_step(self, monkeypatch, document, steps):
        # stage row i lands on its node c_(i+2); the last stage on t + dt (row 5,
        # the 5th-order weights, sums to 1); both embedded rules are consistent
        # (the error weights of row 6 sum to 0)
        sums = [math.fsum(row) for row in hartree._DP]
        np.testing.assert_allclose(sums, [1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1, 0], rtol=0, atol=1e-15)
        calls, attempts = [0], [0]
        rhs, dp_step = hartree._rhs, hartree._dp_step

        def counting_rhs(g, contractions):
            calls[0] += 1
            return rhs(g, contractions)

        def counting_step(*args):
            attempts[0] += 1
            return dp_step(*args)

        monkeypatch.setattr(hartree, "_rhs", counting_rhs)
        monkeypatch.setattr(hartree, "_dp_step", counting_step)
        config = config_from_dict(document())
        gamma0 = pure_state_density(config.initial_phi)
        traj = hartree_evolve(gamma0, config.spec, config.time_grid, config.integrator_tol)
        # the accepted step count is pinned: a change to step control shows here
        assert len(traj.step_times) == steps
        assert attempts[0] >= steps
        # one evaluation sets the first step; a rejected step reuses its start value
        assert calls[0] == 6 * attempts[0] + 1
