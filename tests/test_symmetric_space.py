import itertools
import math
import time
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bosonlab import (
    HamiltonianSpec,
    SparseHermitian,
    SymmetricState,
    build_hamiltonian,
    build_symmetric_operator,
    embed_product_state,
    enumerate_basis,
    evolve_exact,
    rdm,
    slot_symmetrize,
)
from bosonlab.symmetric_space import (
    _BYTES_PER_ENTRY,
    MAX_TRIPLE_BYTES,
    _walk_rdm,
    ladder_walk,
    rdm_derivative,
)

from .conftest import SPEC_FAMILIES, SZ, random_spec, substream
from . import oracles


class TestEnumerateBasis:
    def test_two_modes_three_particles(self):
        basis = enumerate_basis(2, 3)
        np.testing.assert_array_equal(basis.vectors, [[3, 0], [2, 1], [1, 2], [0, 3]])

    def test_single_mode(self):
        basis = enumerate_basis(1, 7)
        np.testing.assert_array_equal(basis.vectors, [[7]])

    def test_three_modes_two_particles_size(self):
        assert enumerate_basis(3, 2).size == 6  # stars and bars

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 3)])
    def test_size_formula_and_ordering(self, d, n):
        basis = enumerate_basis(d, n)
        assert basis.size == math.comb(n + d - 1, d - 1)
        assert basis.vectors.sum(axis=1).tolist() == [n] * basis.size
        rows = [tuple(v) for v in basis.vectors]
        assert rows == sorted(rows, reverse=True)  # lexicographically descending

    @pytest.mark.parametrize("d,n", [(1, 5), (2, 7), (3, 10), (3, 50), (4, 20), (5, 9)])
    def test_matches_every_occupation_in_descending_order(self, d, n):
        # every vector of the (n+1)^d grid with sum n, sorted: the order the
        # basis has always had, which every index and CSV row depends on
        want = sorted((v for v in itertools.product(range(n + 1), repeat=d) if sum(v) == n),
                      reverse=True)
        vectors = enumerate_basis(d, n).vectors
        assert vectors.dtype == np.int64 and vectors.flags.c_contiguous
        assert vectors.tolist() == [list(v) for v in want]

    def test_positions_roundtrip(self):
        basis = enumerate_basis(3, 4)
        for i, occ in enumerate(basis.vectors):
            assert basis.positions(occ) == i

    def test_oversized_sector_rejected(self):
        with pytest.raises(ValueError, match="refusing to enumerate"):
            enumerate_basis(64, 64)


class TestEmbedProductState:
    def test_basis_mode_maps_to_dicke_corner(self):
        state = embed_product_state(np.array([1.0, 0.0]), 5)
        expected = np.zeros(6)
        expected[0] = 1.0  # occupation (5, 0) comes first
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_one_mode_costs_nothing_that_grows_with_n(self):
        # one state at every N: no pool of N bar places, no lgamma table of N + 1
        start = time.perf_counter()
        tracemalloc.start()
        try:
            state = embed_product_state([1.0], 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.1
        assert peak < 2**20
        assert state.basis.vectors.tolist() == [[10**12]]
        assert state.amplitudes.tolist() == [1.0]

    def test_two_particle_amplitudes(self):
        alpha, beta = 0.6, 0.8j
        state = embed_product_state(np.array([alpha, beta]), 2)
        np.testing.assert_allclose(
            state.amplitudes,
            [alpha**2, math.sqrt(2) * alpha * beta, beta**2],
            atol=1e-15,
        )

    def test_uniform_superposition_matches_fullspace_oracle(self):
        # squared amplitudes over occupations follow Binomial(6, 1/2)
        phi = np.array([1.0, 1.0]) / math.sqrt(2)
        state = embed_product_state(phi, 6)
        basis = state.basis
        t = oracles.symmetric_isometry(basis)
        full = phi
        for _ in range(5):
            full = np.kron(full, phi)
        np.testing.assert_allclose(state.amplitudes, t.conj().T @ full, atol=1e-13)
        probs = np.abs(state.amplitudes) ** 2
        binom = [math.comb(6, k) / 64 for k in range(7)]
        np.testing.assert_allclose(probs, binom, atol=1e-13)

    def test_random_phi_matches_fullspace_oracle(self, rng):
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi /= np.linalg.norm(phi)
        state = embed_product_state(phi, 4)
        t = oracles.symmetric_isometry(state.basis)
        full = phi
        for _ in range(3):
            full = np.kron(full, phi)
        np.testing.assert_allclose(state.amplitudes, t.conj().T @ full, atol=1e-13)

    def test_norm_is_preserved(self, rng):
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi /= np.linalg.norm(phi)
        state = embed_product_state(phi, 6)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_large_n_matches_exact_multinomials(self):
        # sqrt(N!/prod n_i!) alone overflows a float from N = 1030 at d = 2
        n, theta, alpha = 4096, 0.7, 1.3
        phi = np.array([math.cos(theta), math.sin(theta) * np.exp(1j * alpha)])
        state = embed_product_state(phi, n)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)
        peak = round(n * math.cos(theta) ** 2)
        with localcontext() as ctx:
            ctx.prec = 60
            for n1 in (peak - 150, peak, peak + 40):
                magnitude = (
                    Decimal(math.comb(n, n1)).sqrt()
                    * Decimal(math.cos(theta)) ** n1
                    * Decimal(math.sin(theta)) ** (n - n1)
                )
                expected = float(magnitude) * np.exp(1j * alpha * (n - n1))
                got = state.amplitudes[state.basis.positions(np.asarray((n1, n - n1)))]
                assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_norm_holds_where_the_log_amplitudes_drift(self):
        # unnormalized, the rounding of the log-amplitudes passes the 1e-10
        # norm check from N of about 257,000 at d = 2 (1.333e-10 here)
        state = embed_product_state(np.array([0.6, 0.8]), 260_000)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-13

    def test_zero_component_gives_zero_amplitudes_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = embed_product_state(np.array([0.0, np.exp(0.3j)]), 4096)
            small = embed_product_state(np.array([0.6, 0.0, 0.8j]), 7)
        expected = np.zeros(4097, dtype=complex)
        expected[-1] = np.exp(0.3j * 4096)  # occupation (0, N) comes last
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-10)
        for occ, amp in zip(small.basis.vectors, small.amplitudes):
            n1, n2, n3 = (int(q) for q in occ)
            exact = 0.0 if n2 else math.sqrt(math.comb(7, n1)) * 0.6**n1 * (0.8j) ** n3
            assert abs(amp - exact) <= 1e-14

    def test_unnormalized_phi_rejected(self):
        with pytest.raises(ValueError, match="norm deviates"):
            embed_product_state(np.array([1.0, 1.0]), 3)
        with pytest.raises(ValueError, match="norm deviates"):
            embed_product_state(np.array([np.nan, 1.0]), 3)


class TestSymmetricState:
    def test_norm_checked(self):
        basis = enumerate_basis(2, 2)
        with pytest.raises(ValueError, match="norm deviates"):
            SymmetricState(basis, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="norm deviates"):
            SymmetricState(basis, np.array([np.nan, 1.0, 0.0]))

    def test_length_checked(self):
        basis = enumerate_basis(2, 2)
        with pytest.raises(ValueError):
            SymmetricState(basis, np.array([1.0, 0.0]))


class TestBuildSymmetricOperator:
    def test_identity_pair_term_counts_pairs(self):
        basis = enumerate_basis(2, 5)
        op = build_symmetric_operator(np.eye(4), 2, basis, 1.0)
        np.testing.assert_allclose(op, math.comb(5, 2) * np.eye(basis.size), atol=1e-12)

    def test_total_spin_z(self):
        basis = enumerate_basis(2, 2)
        op = build_symmetric_operator(SZ, 1, basis, 1.0)
        np.testing.assert_allclose(op, np.diag([2.0, 0.0, -2.0]), atol=1e-13)

    def test_matches_isometry_conjugated_brute_force(self, rng):
        terms = [(2, 3, 2, random_spec(rng, 2, (2,), unit_norm=False).terms[2])]
        # Hermitian but not slot-symmetric: assembly sums each multiset orbit
        for d, n, m in ((2, 4, 2), (3, 3, 2), (2, 4, 3), (3, 3, 3)):
            v = oracles.rand_herm(rng, d**m)
            assert np.max(np.abs(v - slot_symmetrize(v, d, m))) > 0.1
            terms.append((d, n, m, v))
        for d, n, m, v in terms:
            basis = enumerate_basis(d, n)
            op = build_symmetric_operator(v, m, basis, 1.0)
            t = oracles.symmetric_isometry(basis)
            brute = np.zeros((d**n, d**n), dtype=complex)
            for sites in itertools.combinations(range(n), m):
                brute += oracles.embed_brute(v, sites, d, n)
            np.testing.assert_allclose(op, t.conj().T @ brute @ t, atol=1e-12)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="interaction order must be >= 1"):
            build_symmetric_operator(np.eye(1), 0, enumerate_basis(2, 3), 1.0)

    def test_order_exceeding_particle_number_rejected(self):
        basis = enumerate_basis(2, 2)
        with pytest.raises(ValueError, match="exceeds"):
            build_symmetric_operator(np.eye(8), 3, basis, 1.0)

    def test_dimension_mismatch_rejected(self):
        basis = enumerate_basis(3, 3)
        with pytest.raises(ValueError, match="match"):
            build_symmetric_operator(np.eye(4), 2, basis, 1.0)

    def test_non_square_rejected(self):
        basis = enumerate_basis(2, 3)
        with pytest.raises(ValueError, match=r"shape \(4, 2\) does not match .* = \(4, 4\)"):
            build_symmetric_operator(np.zeros((4, 2)), 2, basis, 1.0)

    def test_triple_byte_budget_refuses_before_assembly(self):
        basis = enumerate_basis(4, 60)  # 39711 states; order 4 gives C(7, 4)^2 = 1225 pairs
        nbytes = _BYTES_PER_ENTRY * basis.size * math.comb(7, 4) ** 2
        assert nbytes > MAX_TRIPLE_BYTES
        with pytest.raises(ValueError, match=f"bytes = {nbytes} > "):
            build_symmetric_operator(np.eye(256), 4, basis, 1.0)


    @pytest.mark.parametrize(
        "d, orders, n", [(3, (1, 2, 3), 50), (3, (1, 2, 3), 100), (2, (1, 2), 3000)]
    )
    def test_assembly_peak_within_charged_bytes(self, d, orders, n):
        # the byte guard charges for the path that runs: the concatenated
        # triples alive while from_triples sorts and reduces them
        spec = random_spec(substream(47, "assembly-peak", n), d, orders)
        basis = enumerate_basis(d, n)
        pairs = sum(math.comb(d + m - 1, m) ** 2 for m in orders)
        tracemalloc.start()
        try:
            build_hamiltonian(spec, n, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _BYTES_PER_ENTRY * basis.size * pairs


class TestBuildHamiltonian:
    def test_single_particle_term_eigenvalues(self):
        # diagonal V1 -> diagonal H with occupation-weighted sums of eigenvalues
        spec = HamiltonianSpec(2, 1, {1: np.diag([1.5, -0.5])})
        h = build_hamiltonian(spec, 3)
        basis = enumerate_basis(2, 3)
        expected = [1.5 * occ[0] - 0.5 * occ[1] for occ in basis.vectors]
        np.testing.assert_allclose(h, np.diag(expected), atol=1e-13)

    def test_identity_interaction_shifts_by_half_n_minus_one(self):
        spec = HamiltonianSpec(
            2, 2, {2: np.eye(4)}
        )
        for n in (2, 3, 6):
            h = build_hamiltonian(spec, n)
            dim = n + 1
            np.testing.assert_allclose(h, (n - 1) / 2 * np.eye(dim), atol=1e-12)

    def test_matches_fullspace_oracle(self):
        rng = substream(41, "ham")
        spec = random_spec(rng, 2, (1, 2, 3), unit_norm=False)
        n = 4
        h = build_hamiltonian(spec, n)
        t = oracles.symmetric_isometry(enumerate_basis(2, n))
        brute = oracles.hamiltonian_brute(spec, n)
        np.testing.assert_allclose(h, t.conj().T @ brute @ t, atol=1e-11)

    def test_hermitian(self, rng):
        spec = random_spec(rng, 3, (1, 2), unit_norm=False)
        h = np.asarray(build_hamiltonian(spec, 4))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)

    @pytest.mark.parametrize("orders", [(1,), (2,), (3,), (1, 2, 3)])
    @pytest.mark.parametrize("d,n", [(1, 5), (2, 5), (3, 4), (4, 3)])
    @pytest.mark.parametrize("family", sorted(SPEC_FAMILIES))
    def test_sparse_matches_projected_brute_force(self, family, d, n, orders):
        rng = substream(43, f"sparse-ham:{family}:{orders}", d)
        spec = SPEC_FAMILIES[family](rng, d, orders)
        basis = enumerate_basis(d, n)
        h = build_hamiltonian(spec, n, basis)
        t = oracles.symmetric_isometry(basis)
        expected = t.conj().T @ oracles.hamiltonian_brute(spec, n) @ t
        assert h.shape == (basis.size, basis.size)
        # the structured family leaves diagonals structurally zero from d = 2
        assert (family == "structured" and d > 1) == (expected.diagonal() == 0).any()
        assert np.max(np.abs(np.asarray(h) - expected)) <= 1e-12

        # slot 0 holds the diagonal; a later slot holding the row's own index is padding
        stored = np.c_[np.ones(basis.size, bool), h.cols[:, 1:] != h.cols[:, :1]]
        keys = (np.arange(basis.size)[:, None] * basis.size + h.cols)[stored]
        assert h.nnz == keys.size == np.unique(keys).size  # each (row, col) stored once
        assert not h.values[~stored].any()
        x = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        np.testing.assert_allclose(h.matvec(x), expected @ x, rtol=0, atol=1e-12)

    def test_misplaced_diagonal_rejected(self):
        with pytest.raises(ValueError, match="slot 0"):
            SparseHermitian(np.array([[1, 0], [0, 1]]), np.ones((2, 2)))
        with pytest.raises(ValueError, match="one shape"):
            SparseHermitian(np.array([[0, 1], [1, 0]]), np.ones((2, 1)))


class TestFromTriples:
    """from_triples against the dense (A + A^dagger)/2 of the summed triples."""

    @pytest.mark.parametrize("d,n", [(2, 7), (3, 5), (4, 4)])
    def test_matches_dense_hermitian_part(self, d, n):
        rng = substream(47, "from-triples", d)
        basis = enumerate_basis(d, n)
        parts = []
        for k in (1, 2):
            # one random weight per chain: A is not Hermitian, and chains of
            # both orders land on shared (row, col) positions
            for _, rows, cols, factor in ladder_walk(basis, k):
                for chain_rows, chain_factor in zip(rows, factor):
                    weight = rng.standard_normal() + 1j * rng.standard_normal()
                    parts.append((chain_rows, cols, weight * chain_factor))
        rows, cols, values = (np.concatenate(p) for p in zip(*parts))
        assert np.unique(rows * basis.size + cols).size < rows.size  # repeated positions
        a = np.zeros((basis.size, basis.size), dtype=np.complex128)
        np.add.at(a, (rows, cols), values)
        out = np.asarray(SparseHermitian.from_triples(basis.size, rows, cols, values))
        assert np.max(np.abs(out - (a + a.conj().T) / 2)) <= 1e-13
        np.testing.assert_array_equal(out, out.conj().T)

    def test_one_sided_triple_refused(self):
        rows, cols = np.array([0, 1, 2]), np.array([0, 1, 0])
        with pytest.raises(ValueError, match="structurally symmetric"):
            SparseHermitian.from_triples(3, rows, cols, np.ones(3, dtype=np.complex128))


class TestRdm:
    def test_product_state_factorizes(self, rng):
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi /= np.linalg.norm(phi)
        state = embed_product_state(phi, 5)
        pure = np.outer(phi, phi.conj())
        for k in (1, 2, 3):
            expected = pure
            for _ in range(k - 1):
                expected = np.kron(expected, pure)
            np.testing.assert_allclose(rdm(state, k).matrix, expected, atol=1e-12)

    def test_dicke_state_single_particle(self):
        basis = enumerate_basis(3, 4)
        amps = np.zeros(basis.size)
        amps[basis.positions(np.asarray((4, 0, 0)))] = 1.0
        state = SymmetricState(basis, amps)
        np.testing.assert_allclose(
            rdm(state, 1).matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-14
        )

    def test_evolved_state_matches_brute_force_partial_trace(self):
        from bosonlab import evolve_exact

        rng = substream(17, "rdm")
        for d, n, ks in ((2, 4, (1, 2)), (3, 4, (1, 2, 3)), (4, 3, (2,))):
            spec = random_spec(rng, d, (1, 2), unit_norm=False)
            h = build_hamiltonian(spec, n)
            phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            phi /= np.linalg.norm(phi)
            state = evolve_exact(h, embed_product_state(phi, n), [0.9])[0]
            t = oracles.symmetric_isometry(state.basis)
            full = t @ state.amplitudes
            rho = np.outer(full, full.conj())
            for k in ks:
                expected = oracles.trace_out_last(rho, d, n, n - k)
                np.testing.assert_allclose(rdm(state, k).matrix, expected, atol=1e-12)

    def test_output_is_valid_density_matrix(self, rng):
        basis = enumerate_basis(2, 6)
        amps = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        amps /= np.linalg.norm(amps)
        state = SymmetricState(basis, amps)
        gamma = rdm(state, 2)
        assert np.trace(gamma.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(gamma.matrix).min() >= -1e-10

    @pytest.mark.parametrize("d,n,k", [(2, 9, 4), (3, 24, 3), (4, 6, 3)])
    def test_marginals_match_direct_rdm(self, d, n, k):
        rng = substream(41, "marginal", d)
        basis = enumerate_basis(d, n)
        amps = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        state = SymmetricState(basis, amps / np.linalg.norm(amps))
        top = rdm(state, k)
        for order in range(1, k):
            direct = rdm(state, order).matrix
            assert np.max(np.abs(top.marginal(order).matrix - direct)) <= 1e-14
        assert top.marginal(k) is top
        np.testing.assert_allclose(top.marginal(0).matrix, [[1.0]], atol=1e-14)

    def test_k_bounds_enforced(self):
        state = embed_product_state(np.array([1.0, 0.0]), 3)
        with pytest.raises(ValueError):
            rdm(state, 0)
        with pytest.raises(ValueError):
            rdm(state, 4)


class TestRdmDerivative:
    """rdm_derivative against -i [H, rho] in the full space, traced down."""

    @pytest.mark.parametrize("d, n", [(2, 5), (3, 4), (4, 3)])
    def test_matches_fullspace_commutator(self, d, n):
        rng = substream(53, "rdm-derivative", d)
        spec = random_spec(rng, d, (1, 2, 3), unit_norm=False)
        basis = enumerate_basis(d, n)
        h = build_hamiltonian(spec, n, basis)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        state = evolve_exact(h, embed_product_state(phi / np.linalg.norm(phi), n), [0.9])[0]
        t = oracles.symmetric_isometry(basis)
        full = t @ state.amplitudes
        rho = np.outer(full, full.conj())
        h_brute = oracles.hamiltonian_brute(spec, n)
        flow = -1j * (h_brute @ rho - rho @ h_brute)
        # an evolved state, not a product: its 2-RDM is not gamma_1 (x) gamma_1
        gamma = rdm(state, 2).matrix
        assert np.max(np.abs(gamma - np.kron(rdm(state, 1).matrix, rdm(state, 1).matrix))) > 1e-3
        for k in range(1, n):
            expected = oracles.trace_out_last(flow, d, n, n - k)
            assert np.max(np.abs(rdm_derivative(state, h, k) - expected)) <= 1e-10

    def test_rdm_is_the_hermitized_walk(self, rng):
        basis = enumerate_basis(3, 5)
        amps = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        state = SymmetricState(basis, amps / np.linalg.norm(amps))
        for k in (1, 2, 3):
            walk = _walk_rdm(state, k, state.amplitudes)
            assert np.array_equal(rdm(state, k).matrix, (walk + walk.conj().T) / 2)
