import json
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bosonlab import (
    DensityMatrix,
    HamiltonianSpec,
    SparseHermitian,
    SymmetricState,
    bbgky_rhs,
    build_hamiltonian,
    commutator_growth,
    correlation_gap,
    embed_product_state,
    enumerate_basis,
    evolve_exact,
    hartree_evolve,
    pure_state_density,
    rdm,
)
from bosonlab import exact_dynamics, experiments
from bosonlab.exact_dynamics import MAX_CHEBYSHEV_TERMS
from bosonlab.experiments import config_from_dict, run_convergence

from .conftest import SPEC_FAMILIES, SX, SZ, random_spec, substream
from . import oracles
from .oracles import FullSpaceState, fullspace_evolve

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _unit_phi(rng, d):
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return phi / np.linalg.norm(phi)


def _scalar_hamiltonian(c, size):
    return SparseHermitian(np.arange(size)[:, None], np.full((size, 1), c, dtype=complex))


def _full_space_hamiltonian(spec, n):
    # every particle active: no spectators, so the one block is the full space
    (h,) = exact_dynamics._block_hamiltonians(spec, n, n)
    return h


class TestEvolveExact:
    def test_time_zero_is_identity(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        h = build_hamiltonian(spec, 3)
        state = embed_product_state(_unit_phi(rng, 2), 3)
        out = evolve_exact(h, state, [0.0])[0]
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-13)

    def test_scalar_hamiltonian_is_a_phase(self, rng):
        basis = enumerate_basis(2, 3)
        state = embed_product_state(_unit_phi(rng, 2), 3)
        c = 0.83
        out = evolve_exact(_scalar_hamiltonian(c, basis.size), state, [1.3])[0]
        np.testing.assert_allclose(
            out.amplitudes, np.exp(-1j * c * 1.3) * state.amplitudes, atol=1e-13
        )
        np.testing.assert_allclose(
            rdm(out, 1).matrix, rdm(state, 1).matrix, atol=1e-13
        )

    @pytest.mark.parametrize("family", sorted(SPEC_FAMILIES))
    def test_matches_fullspace_oracle(self, family):
        rng = substream(23, "evolve" if family == "random" else f"evolve:{family}")
        d, n, t = 2, 3, 0.7
        spec = SPEC_FAMILIES[family](rng, d, (1, 2))
        state0 = embed_product_state(_unit_phi(rng, d), n)
        out = evolve_exact(build_hamiltonian(spec, n), state0, [t])[0]

        iso = oracles.symmetric_isometry(state0.basis)
        h_full = oracles.hamiltonian_brute(spec, n)
        w, v = np.linalg.eigh(h_full)
        full_t = v @ (np.exp(-1j * w * t) * (v.conj().T @ (iso @ state0.amplitudes)))
        np.testing.assert_allclose(iso @ out.amplitudes, full_t, atol=1e-11)

    def test_norm_preserved_along_grid(self, rng):
        spec = random_spec(rng, 3, (1, 2))
        state = embed_product_state(_unit_phi(rng, 3), 4)
        for out in evolve_exact(build_hamiltonian(spec, 4), state, [0.5, 1.0, 2.0]):
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_hamiltonian_rejected(self, rng):
        state = embed_product_state(_unit_phi(rng, 2), 2)
        for c in (np.nan, np.inf):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="Chebyshev terms"):
                evolve_exact(_scalar_hamiltonian(c, 3), state, [1.0])

    def test_shape_mismatch_rejected(self, rng):
        state = embed_product_state(_unit_phi(rng, 2), 2)
        with pytest.raises(ValueError, match="does not match basis size 3"):
            evolve_exact(_scalar_hamiltonian(1.0, 4), state, [1.0])

    def test_negative_times_rejected(self, rng):
        spec = random_spec(rng, 2, (1,))
        state = embed_product_state(_unit_phi(rng, 2), 2)
        with pytest.raises(ValueError, match="non-negative"):
            evolve_exact(build_hamiltonian(spec, 2), state, [-0.5, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, rng, bad):
        spec = random_spec(rng, 2, (1,))
        state = embed_product_state(_unit_phi(rng, 2), 2)
        with pytest.raises(ValueError, match="finite"):
            evolve_exact(build_hamiltonian(spec, 2), state, [0.0, bad])


def _forbid_matvec(monkeypatch):
    def no_matvec(self, x):
        raise AssertionError("matvec before the guard")

    monkeypatch.setattr(SparseHermitian, "matvec", no_matvec)


@pytest.mark.parametrize(
    "times, match",
    [
        ([0.0, 0.7, 0.3], "strictly increasing"),
        ([0.0, 0.3, 0.3], "strictly increasing"),
        ([-0.5, 1.0], "non-negative"),
        ([0.0, math.nan], "finite"),
        ([0.0, math.inf], "finite"),
        ([], "non-empty 1-d"),
        ([[0.0, 1.0]], "non-empty 1-d"),
    ],
    ids=["unsorted", "repeated", "negative", "nan", "inf", "empty", "2-d"],
)
@pytest.mark.parametrize("propagator", ["evolve_exact", "hartree_evolve", "commutator_growth"])
def test_one_time_grid_rule_for_every_propagator(rng, monkeypatch, propagator, times, match):
    spec = random_spec(rng, 2, (1, 2))
    phi = _unit_phi(rng, 2)
    calls = {
        "evolve_exact": lambda: evolve_exact(build_hamiltonian(spec, 3),
                                             embed_product_state(phi, 3), times),
        "hartree_evolve": lambda: hartree_evolve(pure_state_density(phi), spec, times),
        "commutator_growth": lambda: commutator_growth(spec, 3, 1, 1, [SX], [SZ], times),
    }
    _forbid_matvec(monkeypatch)
    with pytest.raises(ValueError, match=f"^times must be .*{match}"):
        calls[propagator]()


def _eigh_states(hamiltonian, amplitudes, times):
    w, v = np.linalg.eigh(np.asarray(hamiltonian))
    coeff = v.conj().T @ amplitudes
    return [v @ (np.exp(-1j * w * t) * coeff) for t in times]


class TestPropagation:
    """The Chebyshev path against a dense eigendecomposition written here."""

    TIMES = [0.0, 1e-6, 0.3, 7.5, 20.0]

    @pytest.mark.parametrize("d,n,orders", [(2, 12, (1, 2)), (3, 8, (1, 2, 3)), (4, 5, (1, 2))])
    @pytest.mark.parametrize("family", sorted(SPEC_FAMILIES))
    def test_matches_dense_eigh_reference(self, family, d, n, orders):
        rng = substream(61, "taylor" if family == "random" else f"taylor:{family}", d)
        spec = SPEC_FAMILIES[family](rng, d, orders)
        h = build_hamiltonian(spec, n)
        state0 = embed_product_state(_unit_phi(rng, d), n)
        out = evolve_exact(h, state0, self.TIMES)
        assert len(out) == len(self.TIMES)
        for state, ref in zip(out, _eigh_states(h, state0.amplitudes, self.TIMES)):
            assert np.max(np.abs(state.amplitudes - ref)) <= 1e-10
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
        np.testing.assert_array_equal(out[0].amplitudes, state0.amplitudes)

    @pytest.mark.parametrize("c", [0.0, 0.83, -2.5])
    def test_scalar_hamiltonian_gives_exact_phase(self, rng, c):
        # c = 0 is the zero Hamiltonian
        state = embed_product_state(_unit_phi(rng, 4), 3)
        h = _scalar_hamiltonian(c, state.basis.size)
        for t, out in zip(self.TIMES, evolve_exact(h, state, self.TIMES)):
            expected = np.exp(-1j * c * t) * state.amplitudes
            assert np.max(np.abs(out.amplitudes - expected)) <= 1e-10
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12

    def test_subnormal_reach_gives_the_phase(self, rng):
        # H = c floors R at the smallest normal float, so R t is subnormal here
        state = embed_product_state(_unit_phi(rng, 2), 2)
        (out,) = evolve_exact(_scalar_hamiltonian(0.83, state.basis.size), state, [2.2e-16])
        expected = np.exp(-1j * 0.83 * 2.2e-16) * state.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-15

    @pytest.mark.parametrize("t", [1e9, 1e300])
    def test_work_guard_refuses_before_propagating(self, rng, t, monkeypatch):
        spec = random_spec(rng, 3, (1, 2))
        state = embed_product_state(_unit_phi(rng, 3), 6)
        h = build_hamiltonian(spec, 6)
        _forbid_matvec(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"in Chebyshev terms = inf > {MAX_CHEBYSHEV_TERMS}$"):
            evolve_exact(h, state, [0.5, t])
        assert time.perf_counter() - start < 1.0

    def test_coefficient_bytes_refused_before_propagating(self, rng, monkeypatch):
        spec = random_spec(rng, 3, (1, 2))
        state = embed_product_state(_unit_phi(rng, 3), 6)
        h = build_hamiltonian(spec, 6)
        _, radius = exact_dynamics._enclosure(h)
        # R t_max = 1e5 takes about 1.4e5 terms, within the term budget; a
        # table of 600 times x 1.4e5 complex coefficients is 1.3 GB
        times = np.linspace(0.0, 1e5 / radius, 600)
        _forbid_matvec(monkeypatch)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=r"coefficients of \d+ terms, .* bytes = \d+ > "):
                evolve_exact(h, state, times)
            elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 2**20

    def test_state_bytes_refused_before_propagating(self, rng, monkeypatch):
        # 8192 states of D = 16385 amplitudes and their sums: 32 * 8192 * 16385 > 2^32 bytes
        state = embed_product_state(_unit_phi(rng, 2), 16384)
        h = _scalar_hamiltonian(0.5, state.basis.size)
        times = np.linspace(0.0, 1.0, 8192)
        _forbid_matvec(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^the propagated states at D = 16385, 32 \* times \* D "
                               r"bytes = \d+ > 4294967296; the largest workable number of times is 8191$"):
                evolve_exact(h, state, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_all_times_in_one_call_match_one_call_per_time(self):
        rng = substream(61, "one call", 3)
        spec = random_spec(rng, 3, (1, 2), unit_norm=False)
        h = build_hamiltonian(spec, 8)
        state0 = embed_product_state(_unit_phi(rng, 3), 8)
        for t, out in zip(self.TIMES, evolve_exact(h, state0, self.TIMES)):
            (alone,) = evolve_exact(h, state0, [t])
            assert np.max(np.abs(out.amplitudes - alone.amplitudes)) <= 1e-12

    def test_large_offset_is_shifted_out(self):
        # H + 1e4: the recurrence runs about the enclosure's center, so the
        # offset leaves R, and the term count, unchanged
        rng = substream(61, "offset", 2)
        spec = random_spec(rng, 2, (1, 2), unit_norm=False)
        h = build_hamiltonian(spec, 10)
        values = h.values.copy()
        values[:, 0] += 1e4  # slot 0 is the diagonal
        shifted = SparseHermitian(h.cols, values)
        assert exact_dynamics._enclosure(shifted)[1] == pytest.approx(
            exact_dynamics._enclosure(h)[1], rel=1e-9
        )
        state0 = embed_product_state(_unit_phi(rng, 2), 10)
        out = evolve_exact(shifted, state0, self.TIMES)
        for state, ref in zip(out, _eigh_states(shifted, state0.amplitudes, self.TIMES)):
            assert np.max(np.abs(state.amplitudes - ref)) <= 1e-10
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12

    @pytest.mark.parametrize("x", [0.5, 50.0, 2000.0])
    def test_coefficients_reproduce_the_exponential_off_the_nodes(self, x):
        rng = substream(61, "coefficients", int(x))
        # dyadic y with 40 fraction bits: x y is exact, so the reference
        # exp(-i x y) carries only its own rounding
        y = np.round(rng.uniform(-1.0, 1.0, 200) * 2.0**40) / 2.0**40
        terms = exact_dynamics._chebyshev_terms(x)
        assert x <= terms < math.inf
        (coeffs,) = exact_dynamics._chebyshev_coefficients(np.array([x]), terms)
        values = np.polynomial.chebyshev.chebval(y, coeffs)
        assert np.max(np.abs(values - np.exp(-1j * x * y))) <= 1e-13

    def test_one_recurrence_per_n_on_the_converge_config(self, monkeypatch):
        config = config_from_dict(json.loads((CONFIG_DIR / "converge.json").read_text()))
        expected, matvecs = [], []
        matvec = SparseHermitian.matvec

        def counting_matvec(self, x):
            matvecs[-1] += 1
            return matvec(self, x)

        def a_priori(hamiltonian, state, times):
            _, radius = exact_dynamics._enclosure(hamiltonian)
            expected.append(exact_dynamics._chebyshev_terms(radius * max(times)))
            matvecs.append(0)
            return evolve_exact(hamiltonian, state, times)

        monkeypatch.setattr(SparseHermitian, "matvec", counting_matvec)
        monkeypatch.setattr(experiments, "evolve_exact", a_priori)
        run_convergence(config)
        assert len(matvecs) == len(config.n_values)
        assert matvecs == expected


def _projector_spec():
    # {1: sigma_x, 2: |00><00|}: the diagonal of H is structurally zero on
    # every state with fewer than two bosons in mode 0
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    return HamiltonianSpec(2, {1: SX, 2: p00})


def _projector_hamiltonian(basis):
    """H of _projector_spec on |n0, n1> by hand: n0 (n0 - 1) / 2N on the
    diagonal, sqrt((n0 + 1) n1) between |n0, n1> and |n0 + 1, n1 - 1>."""
    n = basis.n_particles
    h = np.zeros((basis.size, basis.size), dtype=complex)
    for i, (n0, n1) in enumerate(basis.vectors.tolist()):
        h[i, i] = n0 * (n0 - 1) / (2 * n)
        for j, (m0, _) in enumerate(basis.vectors.tolist()):
            if m0 == n0 + 1:
                h[i, j] = h[j, i] = math.sqrt((n0 + 1) * n1)
    return h


class TestStructurallyZeroDiagonal:
    """The spectral shift reaches every row, stored diagonal or not."""

    def test_evolve_exact_matches_expm(self):
        state = embed_product_state(np.array([0.6, 0.8]), 6)
        h = build_hamiltonian(_projector_spec(), 6)
        dense = _projector_hamiltonian(state.basis)
        times = [0.5, 1.0, 3.0]
        for t, out in zip(times, evolve_exact(h, state, times)):
            expected = oracles.expm_taylor(-1j * t * dense) @ state.amplitudes
            assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12

    def test_convergence_rows_match_the_dense_oracle(self):
        spec = _projector_spec()
        pairs = {str(m): [[[x.real, x.imag] for x in row] for row in v] for m, v in spec.terms.items()}
        config = config_from_dict({
            "scenario": "converge",
            "spec": {"d": 2, "max_order": 2, "terms": pairs},
            "n_values": [4, 8, 16],
            "time_grid": [0.0, 0.5, 1.0],
            "initial_phi": [[0.6, 0.0], [0.8, 0.0]],
        })
        hartree = hartree_evolve(pure_state_density(config.initial_phi), spec,
                                 config.time_grid, config.integrator_tol)
        rows = [r for r in run_convergence(config) if r["kind"] == "point"]
        assert len(rows) == 9
        for row in rows:
            basis = enumerate_basis(2, row["N"])
            n0, n1 = basis.vectors.T
            psi0 = np.sqrt([math.comb(row["N"], k) for k in n0.tolist()]) * 0.6**n0 * 0.8**n1
            psi = oracles.expm_taylor(-1j * row["t"] * _projector_hamiltonian(basis)) @ psi0
            # gamma_ab = <a+_b a_a> / N; a+_1 a_0 moves a boson from mode 0 to 1
            hop = np.vdot(psi[1:], np.sqrt(n0[:-1] * (n1[:-1] + 1)) * psi[:-1])
            gamma = np.array([[np.vdot(psi, n0 * psi), hop],
                              [np.conj(hop), np.vdot(psi, n1 * psi)]]) / row["N"]
            mean_field = hartree.states[config.time_grid.index(row["t"])].matrix
            expected = np.linalg.svd(gamma - mean_field, compute_uv=False).sum()
            assert abs(row["trace_distance"] - expected) <= 1e-10


class TestFullSpace:
    """The full space as the one block without spectators, and the guard
    on its dense bytes."""

    def test_build_single_particle_only(self, rng):
        spec = random_spec(rng, 2, (1,), unit_norm=False)
        h = _full_space_hamiltonian(spec, 3)
        expected = sum(
            oracles.embed_brute(spec.terms[1], (j,), 2, 3) for j in range(3)
        )
        np.testing.assert_allclose(h, expected, atol=1e-13)

    def test_build_two_particles_closed_form(self, rng):
        spec = random_spec(rng, 2, (1, 2), unit_norm=False)
        v1, v2 = spec.terms[1], spec.terms[2]
        h = _full_space_hamiltonian(spec, 2)
        expected = np.kron(v1, np.eye(2)) + np.kron(np.eye(2), v1) + v2 / 2
        np.testing.assert_allclose(h, expected, atol=1e-13)

    def test_build_commutes_with_symmetrizer(self, rng):
        spec = random_spec(rng, 2, (1, 2, 3), unit_norm=False)
        h = _full_space_hamiltonian(spec, 3)
        p = oracles.symmetrizer(2, 3)
        np.testing.assert_allclose(h @ p, p @ h, atol=1e-12)

    def test_build_matches_brute_oracle(self):
        rng = substream(31, "full")
        spec = random_spec(rng, 3, (1, 2), unit_norm=False)
        np.testing.assert_allclose(
            _full_space_hamiltonian(spec, 3), oracles.hamiltonian_brute(spec, 3), atol=1e-12
        )

    def test_guard_blocks_oversized_systems(self, rng):
        spec = random_spec(rng, 3, (1,))
        with pytest.raises(ValueError, match="largest workable N"):
            commutator_growth(spec, 20, 1, 1, [np.eye(3)], [np.eye(3)], [0.5])

    def test_guard_is_stated_in_dense_bytes(self, rng):
        # 8 dense 3^8 x 3^8 complex matrices would take 5.5 GB > MAX_DENSE_BYTES
        spec = random_spec(rng, 3, (1,))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="largest workable N for d=3, .* is 7$"):
                commutator_growth(spec, 8, 1, 1, [np.eye(3)], [np.eye(3)], [0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert list(exact_dynamics._block_dims(3, 7, 2)) == [3**7]
        assert exact_dynamics._dense_peak_bytes(3**7) <= exact_dynamics.MAX_DENSE_BYTES
        assert exact_dynamics._dense_peak_bytes(3**8) > exact_dynamics.MAX_DENSE_BYTES

    def test_evolve_time_zero(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        h = oracles.hamiltonian_brute(spec, 3)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = FullSpaceState(2, 3, amps / np.linalg.norm(amps))
        out = fullspace_evolve(h, state, [0.0])[0]
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-13)

    def test_evolve_factorizes_without_interactions(self, rng):
        spec = random_spec(rng, 2, (1,), unit_norm=False)
        v1 = spec.terms[1]
        phi = _unit_phi(rng, 2)
        full0 = np.kron(np.kron(phi, phi), phi)
        t = 1.1
        out = fullspace_evolve(
            oracles.hamiltonian_brute(spec, 3), FullSpaceState(2, 3, full0), [t]
        )[0]
        w, v = np.linalg.eigh(v1)
        phi_t = v @ (np.exp(-1j * w * t) * (v.conj().T @ phi))
        np.testing.assert_allclose(
            out.amplitudes, np.kron(np.kron(phi_t, phi_t), phi_t), atol=1e-12
        )

    def test_evolve_consistent_with_symmetric_sector(self):
        rng = substream(12, "consist")
        d, n, t = 2, 3, 0.9
        spec = random_spec(rng, d, (1, 2), unit_norm=False)
        phi = _unit_phi(rng, d)
        sym = evolve_exact(
            build_hamiltonian(spec, n), embed_product_state(phi, n), [t]
        )[0]
        full0 = phi
        for _ in range(n - 1):
            full0 = np.kron(full0, phi)
        full = fullspace_evolve(
            oracles.hamiltonian_brute(spec, n), FullSpaceState(d, n, full0), [t]
        )[0]
        iso = oracles.symmetric_isometry(sym.basis)
        np.testing.assert_allclose(iso @ sym.amplitudes, full.amplitudes, atol=1e-11)


def _stacks(*mats):
    return np.array(mats, dtype=np.complex128)


class TestPairStacks:
    # one validator, _pair_stacks, serves commutator_growth and correlation_gap alike
    EYE, FLIP = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    RAISE = np.array([[0.0, 1.0], [0.0, 0.0]])

    @staticmethod
    def _call(function, rng, m, n, a, b):
        if function == "commutator_growth":
            return commutator_growth(random_spec(rng, 2, (1, 2)), 4, m, n, a, b, [0.1])
        gamma = rdm(embed_product_state(_unit_phi(rng, 2), 4), m + n)
        return correlation_gap(gamma, m, n, a, b)

    @pytest.mark.parametrize("function", ["commutator_growth", "correlation_gap"])
    @pytest.mark.parametrize(
        "a, b, match",
        [
            pytest.param(_stacks(EYE, FLIP, RAISE), _stacks(EYE, EYE, EYE), "Hermitian",
                         id="one-non-hermitian-member"),
            pytest.param(_stacks([[np.nan, 0.0], [0.0, 1.0]]), _stacks(EYE), "Hermitian", id="nan"),
            pytest.param(np.zeros((3, 2, 4)), _stacks(EYE, EYE, EYE), "stack of", id="non-square"),
            pytest.param(_stacks(EYE), _stacks(np.eye(4)), "stack of", id="wrong-side"),
            pytest.param(EYE, EYE, "stack of", id="single-matrix"),
            pytest.param(_stacks(EYE, EYE, EYE), _stacks(EYE, EYE), "equal length",
                         id="unequal-lengths"),
        ],
    )
    def test_refused_by_both_functions(self, rng, function, a, b, match):
        with pytest.raises(ValueError, match=match):
            self._call(function, rng, 1, 1, a, b)

    @pytest.mark.parametrize("function", ["commutator_growth", "correlation_gap"])
    def test_empty_sides_refused(self, rng, function):
        with pytest.raises(ValueError, match="m and n must be >= 1"):
            self._call(function, rng, 0, 1, np.ones((1, 1, 1)), _stacks(self.EYE))


class TestCommutatorGrowth:
    def test_zero_at_time_zero(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        a, b = oracles.rand_unit_herm(rng, 2), oracles.rand_unit_herm(rng, 2)
        values = commutator_growth(spec, 4, 1, 1, [a], [b], [0.0])[0]
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])  # spin blocks at d = 2, the full space at d = 3
    def test_time_zero_written_as_exact_zero(self, d):
        rng = substream(45, f"t0:{d}")
        spec = random_spec(rng, d, (1, 2, 3), unit_norm=False)
        a, b = (np.array([oracles.rand_unit_herm(rng, d) for _ in range(3)]) for _ in range(2))
        for norms in commutator_growth(spec, 4, 1, 1, a, b, [0.0, 0.7]):
            assert norms[0] == 0.0 and norms[1] > 0.0

    def test_zero_without_interactions(self, rng):
        spec = random_spec(rng, 2, (1,))
        a, b = oracles.rand_unit_herm(rng, 2), oracles.rand_unit_herm(rng, 2)
        for value in commutator_growth(spec, 4, 1, 1, [a], [b], [0.4, 0.9, 1.7])[0]:
            assert value == pytest.approx(0.0, abs=1e-11)

    def test_bounded_by_growth_envelope(self):
        from bosonlab import bound_constants, commutator_growth_bound

        rng = substream(8, "lr")
        spec = random_spec(rng, 2, (1, 2))
        consts = bound_constants(spec)
        a, b = oracles.rand_unit_herm(rng, 2), oracles.rand_unit_herm(rng, 2)
        times = [0.0, 0.25, 0.5, 1.0]
        for t, lhs in zip(times, commutator_growth(spec, 6, 1, 1, [a], [b], times)[0]):
            assert lhs <= commutator_growth_bound(1, 1, consts, 6, t) + 1e-9

    @pytest.mark.parametrize("orders", [(1,), (1, 2), (1, 2, 3)])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_dense_oracle(self, n, orders):
        # the oracle puts A and B on random supports, mostly non-contiguous and
        # often in decreasing order; the library on its fixed ones
        rng = substream(40, f"lr-oracle:{n}:{orders}")
        spec = random_spec(rng, 2, orders, unit_norm=False)
        h = oracles.hamiltonian_brute(spec, n)
        times = [0.0, 0.4, 1.3]
        for m, k in ((1, 1), (2, 1), (1, 2)):
            labels = [int(x) + 1 for x in rng.permutation(n)[: m + k]]
            a, b = oracles.rand_unit_herm(rng, 2**m), oracles.rand_unit_herm(rng, 2**k)
            want = oracles.commutator_norms_brute(h, 2, n, labels[:m], a, labels[m:], b, times)
            np.testing.assert_allclose(
                commutator_growth(spec, n, m, k, [a], [b], times)[0], want, rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize(
        "d, n, orders, support_a, support_b",
        [
            (2, 5, (1, 2, 3), (5,), (2,)),
            (2, 6, (1, 2), (6, 2), (4,)),
            (2, 6, (1, 2, 3), (3,), (5, 1)),
            (2, 9, (1, 2, 3), (9,), (4, 2)),
            (2, 10, (1, 2), (10, 3), (7,)),
            (3, 4, (1, 2, 3), (4, 2), (1,)),
            (3, 5, (1, 2, 3), (2,), (5, 3)),
            (4, 4, (1, 2), (3,), (1,)),
        ],
    )
    def test_reversed_and_spread_supports_match_dense_oracle(
        self, d, n, orders, support_a, support_b
    ):
        # the oracle's supports against the library's fixed layout: H is
        # permutation symmetric, so the norm cannot depend on the particles
        rng = substream(41, f"lr-oracle:{d}:{n}:{orders}")
        spec = random_spec(rng, d, orders, unit_norm=False)
        m, k = len(support_a), len(support_b)
        a, b = oracles.rand_unit_herm(rng, d**m), oracles.rand_unit_herm(rng, d**k)
        times = [0.9]  # t = 0 is covered above; each time is a 1024^2 expm at N = 10
        want = oracles.commutator_norms_brute(
            oracles.hamiltonian_brute(spec, n), d, n, support_a, a, support_b, b, times
        )
        np.testing.assert_allclose(
            commutator_growth(spec, n, m, k, [a], [b], times)[0], want, rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("n, n_active", [(3, 1), (4, 2), (5, 2), (5, 3)])
    def test_spin_blocks_rebuild_the_full_spectrum(self, n, n_active):
        # each block's spectrum, repeated by the multiplicity of its spin
        # among the spectators, gives the full-space spectrum: none is missing;
        # at d = 3 there are no spectators and the one block is the full space
        for d in (2, 3):
            spec = random_spec(substream(42, f"blocks:{n}", d), d, (1, 2, 3), unit_norm=False)
            k = n - exact_dynamics._tensor_slots(d, n, n_active)
            got = []
            blocks = exact_dynamics._block_hamiltonians(spec, n, n_active)
            for j, h in enumerate(blocks):  # spin S = k/2 - j
                multiplicity = math.comb(k, j) - (math.comb(k, j - 1) if j else 0)
                got.extend(list(np.linalg.eigvalsh(h)) * multiplicity)
            want = np.linalg.eigvalsh(oracles.hamiltonian_brute(spec, n))
            np.testing.assert_allclose(np.sort(got), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pairs", [1, 4])
    @pytest.mark.parametrize("d, n, m, k", [(2, 40, 2, 1), (3, 6, 1, 1)])
    def test_peak_memory_stays_within_the_byte_guard(self, d, n, m, k, pairs):
        # the guard counts _LIVE_MATRICES dense matrices of the largest block;
        # the call, block building included, must hold no more than that, for
        # one pair or a stack of pairs alike
        rng = substream(43, f"peak:{d}:{n}")
        spec = random_spec(rng, d, (1, 2), unit_norm=False)
        a, b = (np.array([oracles.rand_unit_herm(rng, d**j) for _ in range(pairs)]) for j in (m, k))
        largest = exact_dynamics._block_dims(d, n, m + k)[0]
        tracemalloc.start()
        try:
            commutator_growth(spec, n, m, k, a, b, [0.0, 0.5, 1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= exact_dynamics._dense_peak_bytes(largest)

    def test_work_and_byte_guard_refuse_before_allocating(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        a, b = [oracles.rand_unit_herm(rng, 2)], [oracles.rand_unit_herm(rng, 2)]
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="largest workable N") as err:
                commutator_growth(spec, 100_000, 1, 1, a, b, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        max_n = int(re.search(r"m\+n=2 and 5 times is (\d+)$", str(err.value)).group(1))
        exact_dynamics._guard_blocks(2, max_n, 2, len(times), 1)
        with pytest.raises(ValueError, match=f"is {max_n}$"):
            exact_dynamics._guard_blocks(2, max_n + 1, 2, len(times), 1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"is {max_n}$"):
            commutator_growth(spec, 10**18, 1, 1, a, b, times)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [9, 10_000, 10**18])
    def test_full_space_path_keeps_the_byte_guard(self, rng, n):
        # 3^N at the larger N is too long to print or even to build: the
        # refusal must come out all the same
        spec = random_spec(rng, 3, (1,))
        with pytest.raises(ValueError, match="largest workable N for d=3, m\\+n=2 and 1 times is 7"):
            commutator_growth(spec, n, 1, 1, [np.eye(3)], [np.eye(3)], [0.5])

    @pytest.mark.parametrize("d, n, m, k", [(2, 6, 1, 1), (2, 6, 2, 1), (3, 4, 1, 1)])
    def test_stack_equals_one_call_per_pair(self, d, n, m, k):
        rng = substream(44, f"stack:{d}:{n}:{m}")
        spec = random_spec(rng, d, (1, 2, 3), unit_norm=False)
        a, b = (np.array([oracles.rand_unit_herm(rng, d**j) for _ in range(3)]) for j in (m, k))
        times = [0.0, 0.6, 1.3]
        assert commutator_growth(spec, n, m, k, a, b, times) == [
            commutator_growth(spec, n, m, k, [x], [y], times)[0] for x, y in zip(a, b)
        ]

    def test_work_guard_prices_every_pair_before_allocating(self, rng):
        # N = 100 with one time fits for one pair, but not for 1000 of them
        spec = random_spec(rng, 2, (1, 2))
        exact_dynamics._guard_blocks(2, 100, 2, 1, 1)
        a = np.array([oracles.rand_unit_herm(rng, 2)] * 1000)
        b = np.array([oracles.rand_unit_herm(rng, 2)] * 1000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\(1 \+ 1000 x 1\) = \d+ > \d+; .* is \d+$"):
                commutator_growth(spec, 100, 1, 1, a, b, [0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_more_active_particles_than_n_rejected(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        with pytest.raises(ValueError, match="m \\+ n = 4 exceeds N = 3"):
            commutator_growth(spec, 3, 2, 2, [np.eye(4)], [np.eye(4)], [0.1])


def _random_symmetric_state(rng, basis):
    amplitudes = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return SymmetricState(basis, amplitudes / np.linalg.norm(amplitudes))


class TestCorrelationGap:
    def test_product_state_has_no_correlations(self, rng):
        state = embed_product_state(_unit_phi(rng, 2), 5)
        a = oracles.rand_unit_herm(rng, 2)
        b = oracles.rand_unit_herm(rng, 2)
        assert correlation_gap(rdm(state, 2), 1, 1, [a], [b])[0] == pytest.approx(0.0, abs=1e-12)

    def test_identity_observable_gives_zero(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        state0 = embed_product_state(_unit_phi(rng, 2), 5)
        state = evolve_exact(build_hamiltonian(spec, 5), state0, [1.0])[0]
        b = oracles.rand_unit_herm(rng, 2)
        gap = correlation_gap(rdm(state, 2), 1, 1, [np.eye(2)], [b])[0]
        assert gap == pytest.approx(0.0, abs=1e-11)

    def test_bounded_by_gap_envelope(self):
        from bosonlab import bound_constants, correlation_gap_bound

        rng = substream(14, "corr")
        spec = random_spec(rng, 2, (1, 2))
        consts = bound_constants(spec)
        n = 12
        state0 = embed_product_state(_unit_phi(rng, 2), n)
        h = build_hamiltonian(spec, n)
        a = oracles.rand_unit_herm(rng, 2)
        b = oracles.rand_unit_herm(rng, 2)
        for t, state in zip([0.0, 0.5, 1.0], evolve_exact(h, state0, [0.0, 0.5, 1.0])):
            lhs = correlation_gap(rdm(state, 2), 1, 1, [a], [b])[0]
            assert lhs <= correlation_gap_bound(1, 1, consts, n, t) + 1e-9

    def test_stacked_observables_match_one_pair_at_a_time(self, rng):
        spec = random_spec(rng, 3, (1, 2))
        state0 = embed_product_state(_unit_phi(rng, 3), 6)
        gamma = rdm(evolve_exact(build_hamiltonian(spec, 6), state0, [0.7])[0], 3)
        a = np.array([oracles.rand_unit_herm(rng, 3) for _ in range(4)])
        b = np.array([oracles.rand_unit_herm(rng, 9) for _ in range(4)])
        gaps = correlation_gap(gamma, 1, 2, a, b)
        assert gaps == [correlation_gap(gamma, 1, 2, [x], [y])[0] for x, y in zip(a, b)]
        assert max(gaps) > 1e-3

    @pytest.mark.parametrize(
        "d, m, n", [(2, 1, 1), (2, 2, 1), (2, 1, 3), (2, 3, 3), (2, 2, 4), (3, 1, 2), (3, 2, 2),
                    (3, 3, 3), (4, 1, 1), (4, 2, 1), (4, 2, 2)],
    )
    def test_matches_the_kronecker_trace(self, d, m, n):
        # the literal |tr((A (x) B) (gamma - gamma^(m) (x) gamma^(n)))|, each pair's A (x) B
        # formed; on a random symmetric state, so that every gap is far from 0
        rng = substream(62, f"gap:{d}:{m}:{n}")
        state = _random_symmetric_state(rng, enumerate_basis(d, m + n + 1))
        gamma = rdm(state, m + n)
        a = np.array([oracles.rand_unit_herm(rng, d**m) for _ in range(3)])
        b = np.array([oracles.rand_unit_herm(rng, d**n) for _ in range(3)])
        g = gamma.matrix
        connected = g - np.kron(oracles.trace_out_last(g, d, m + n, n),
                                oracles.trace_out_last(g, d, m + n, m))
        expected = [abs(np.trace(np.kron(x, y) @ connected)) for x, y in zip(a, b)]
        np.testing.assert_allclose(correlation_gap(gamma, m, n, a, b), expected, rtol=0, atol=1e-14)
        assert max(expected) > 1e-3

    def test_wrong_order_rdm_rejected(self, rng):
        state = embed_product_state(_unit_phi(rng, 2), 4)
        with pytest.raises(ValueError, match="order 2"):
            correlation_gap(rdm(state, 3), 1, 1, [np.eye(2)], [np.eye(2)])

    def test_subset_sizes_validated(self, rng):
        state = embed_product_state(_unit_phi(rng, 2), 3)
        with pytest.raises(ValueError, match="exceeds"):
            correlation_gap(rdm(state, 4), 2, 2, [np.eye(4)], [np.eye(4)])
        with pytest.raises(ValueError):
            correlation_gap(rdm(state, 1), 0, 1, [np.eye(1)], [np.eye(2)])


class TestBbgkyRhs:
    def test_single_particle_only_reduces_to_commutator(self, rng):
        spec = random_spec(rng, 2, (1,), unit_norm=False)
        state = embed_product_state(_unit_phi(rng, 2), 4)
        k = 2
        gamma = rdm(state, k)
        out = bbgky_rhs(spec, 4, k, gamma)
        v1 = spec.terms[1]
        h = np.kron(v1, np.eye(2)) + np.kron(np.eye(2), v1)
        expected = -1j * (h @ gamma.matrix - gamma.matrix @ h)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_output_is_traceless(self, rng):
        spec = random_spec(rng, 2, (1, 2, 3), unit_norm=False)
        state0 = embed_product_state(_unit_phi(rng, 2), 5)
        state = evolve_exact(build_hamiltonian(spec, 5), state0, [0.6])[0]
        out = bbgky_rhs(spec, 5, 1, rdm(state, 3))
        assert abs(np.trace(out)) < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_central_difference_of_exact_flow(self, k):
        rng = substream(51, "bbgky")
        d, n, t, dt = 2, 5, 0.8, 1e-3
        spec = random_spec(rng, d, (1, 2, 3), unit_norm=False)
        h = build_hamiltonian(spec, n)
        state0 = embed_product_state(_unit_phi(rng, d), n)
        times = [t - dt, t, t + dt]
        back, mid, fwd = evolve_exact(h, state0, times)
        rhs = bbgky_rhs(spec, n, k, rdm(mid, k + 2))
        fd = (rdm(fwd, k).matrix - rdm(back, k).matrix) / (2 * dt)
        assert np.max(np.abs(fd - rhs)) < 50 * dt**2

    def test_too_low_order_rdm_rejected(self, rng):
        spec = random_spec(rng, 2, (1, 2))
        state = embed_product_state(_unit_phi(rng, 2), 4)
        with pytest.raises(ValueError, match="expected an RDM of order >= 2 \\(d=2\\), got order 1"):
            bbgky_rhs(spec, 4, 1, rdm(state, 1))

    @pytest.mark.parametrize("k", [1, 2])
    def test_higher_order_rdm_gives_the_same_rhs(self, k):
        # the order-(k+l) RDMs are partial traces of whichever RDM is given
        rng = substream(51, f"bbgky:order:{k}")
        spec = random_spec(rng, 2, (1, 2, 3), unit_norm=False)
        state = _random_symmetric_state(rng, enumerate_basis(2, 6))
        exact = bbgky_rhs(spec, 6, k, rdm(state, k + 2))
        for order in range(k + 3, 7):
            np.testing.assert_allclose(bbgky_rhs(spec, 6, k, rdm(state, order)), exact,
                                       rtol=0, atol=1e-14)

    def test_hierarchy_depth_guard(self, rng):
        spec = random_spec(rng, 2, (1, 2, 3))
        state = embed_product_state(_unit_phi(rng, 2), 3)
        with pytest.raises(ValueError, match="N"):
            bbgky_rhs(spec, 3, 2, rdm(state, 3))


@pytest.mark.parametrize("functional", ["correlation_gap", "bbgky_rhs"])
def test_rdm_functionals_construct_no_density_matrix(rng, monkeypatch, functional):
    # lower orders are partial traces of the given RDM's matrix, which rdm
    # has validated once; none is built and re-checked as a DensityMatrix
    spec = random_spec(rng, 2, (1, 2))
    state0 = embed_product_state(_unit_phi(rng, 2), 6)
    gamma = rdm(evolve_exact(build_hamiltonian(spec, 6), state0, [0.5])[0], 3)
    a, b = oracles.rand_unit_herm(rng, 2), oracles.rand_unit_herm(rng, 4)
    calls = {
        "correlation_gap": lambda: correlation_gap(gamma, 1, 2, [a], [b]),
        "bbgky_rhs": lambda: bbgky_rhs(spec, 6, 2, gamma),
    }
    constructed = []
    validate = DensityMatrix.__post_init__

    def counting(self):
        constructed.append(self.order)
        validate(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    calls[functional]()
    assert constructed == []
