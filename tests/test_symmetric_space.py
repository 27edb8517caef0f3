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
    embed_product_state,
    enumerate_basis,
    evolve_exact,
    rdm,
    slot_symmetrize,
)
from bosonlab._tensor import partial_trace_last
from bosonlab.symmetric_space import (
    _BYTES_PER_ENTRY,
    MAX_OPERATOR_BYTES,
    _walk_rdm,
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
                got = state.amplitudes[state.basis.vectors.tolist().index([n1, n - n1])]
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


class TestBuildHamiltonian:
    def test_single_particle_term_eigenvalues(self):
        # diagonal V1 -> diagonal H with occupation-weighted sums of eigenvalues
        spec = HamiltonianSpec(2, {1: np.diag([1.5, -0.5])})
        h = build_hamiltonian(spec, 3)
        basis = enumerate_basis(2, 3)
        expected = [1.5 * occ[0] - 0.5 * occ[1] for occ in basis.vectors]
        np.testing.assert_allclose(h, np.diag(expected), atol=1e-13)

    def test_identity_interaction_shifts_by_half_n_minus_one(self):
        spec = HamiltonianSpec(2, {2: np.eye(4)})
        for n in (2, 3, 6):
            h = build_hamiltonian(spec, n)
            dim = n + 1
            np.testing.assert_allclose(h, (n - 1) / 2 * np.eye(dim), atol=1e-12)

    def test_identity_pair_term_counts_pairs(self):
        # the identity pair term counts the C(N, 2) pairs, each weighted 1/N
        h = build_hamiltonian(HamiltonianSpec(3, {2: np.eye(9)}), 5)
        np.testing.assert_allclose(5 * np.asarray(h), math.comb(5, 2) * np.eye(h.shape[0]),
                                   atol=1e-12)

    def test_total_spin_z(self):
        h = build_hamiltonian(HamiltonianSpec(2, {1: SZ}), 2)
        np.testing.assert_allclose(h, np.diag([2.0, 0.0, -2.0]), atol=1e-13)

    def test_matches_isometry_conjugated_brute_force(self, rng):
        terms = [(2, 3, 2, random_spec(rng, 2, (2,), unit_norm=False).terms[2])]
        for d, n, m in ((2, 4, 2), (3, 3, 2), (2, 4, 3), (3, 3, 3)):
            terms.append((d, n, m, slot_symmetrize(oracles.rand_herm(rng, d**m), d, m)))
        for d, n, m, v in terms:
            basis = enumerate_basis(d, n)
            h = build_hamiltonian(HamiltonianSpec(d, {m: v}), n, basis)
            t = oracles.symmetric_isometry(basis)
            brute = np.zeros((d**n, d**n), dtype=complex)
            for sites in itertools.combinations(range(n), m):
                brute += oracles.embed_brute(v, sites, d, n)
            np.testing.assert_allclose(h, float(n) ** (1 - m) * t.conj().T @ brute @ t,
                                       atol=1e-12)

    def test_order_below_one_rejected(self):
        # an order-0 term never reaches the assembler: its spec is refused
        with pytest.raises(ValueError, match="interaction order >= 1"):
            build_hamiltonian(HamiltonianSpec(2, {0: np.eye(1)}), 3)

    def test_order_exceeding_particle_number_rejected(self):
        spec = HamiltonianSpec(2, {3: np.eye(8)})
        with pytest.raises(ValueError, match="interaction order exceeds particle number"):
            build_hamiltonian(spec, 2)

    def test_dimension_mismatch_rejected(self):
        spec = HamiltonianSpec(2, {2: np.eye(4)})
        for basis in (enumerate_basis(3, 3), enumerate_basis(2, 4)):
            with pytest.raises(ValueError, match="basis does not match spec / particle number"):
                build_hamiltonian(spec, 3, basis)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"order-2 potential invalid: not a square matrix"):
            build_hamiltonian(HamiltonianSpec(2, {2: np.zeros((4, 2))}), 3)

    def test_operator_byte_budget_refuses_before_assembly(self):
        # 39711 states at d = 4, N = 60; order 4 gives C(7, 4)^2 = 1225 pairs
        nbytes = _BYTES_PER_ENTRY * math.comb(63, 3) * math.comb(7, 4) ** 2
        assert nbytes > MAX_OPERATOR_BYTES
        with pytest.raises(ValueError, match=f"bytes = {nbytes} > "):
            build_hamiltonian(HamiltonianSpec(4, {4: np.eye(256)}), 60)

    @pytest.mark.parametrize(
        "d, orders, n", [(3, (1, 2, 3), 50), (3, (1, 2, 3), 100), (2, (1, 2), 3000)]
    )
    def test_assembly_peak_within_charged_bytes(self, d, orders, n):
        # the byte guard charges for the path that runs: the move grid alive
        # while the walk scatters into it and it is hermitized into H's rows
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

        # slot 0 holds the diagonal, and each slot s >= 1 one move: key(row) - key(col)
        # is the same in every row that stores s, nonzero and ascending with s; a row
        # that does not store s holds (its own index, 0) there
        own = np.arange(basis.size)[:, None]
        np.testing.assert_array_equal(h.cols[:, :1], own)
        padding = (h.cols == own) & (np.arange(h.cols.shape[1]) > 0)
        assert not h.values[padding].any()
        keys = basis.vectors @ (n + 1) ** np.arange(d - 1, -1, -1)
        moves = [np.unique((keys - keys[h.cols[:, s]])[~padding[:, s]])
                 for s in range(1, h.cols.shape[1])]
        assert [move.size for move in moves] == [1] * len(moves)
        moves = np.array([move[0] for move in moves], dtype=np.int64)
        assert 0 not in moves and (np.diff(moves) > 0).all()
        pairs = (own * basis.size + h.cols)[~padding]
        assert h.nnz == pairs.size == np.unique(pairs).size  # each (row, col) stored once
        x = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        np.testing.assert_allclose(h.matvec(x), expected @ x, rtol=0, atol=1e-12)

    def test_misplaced_diagonal_rejected(self):
        with pytest.raises(ValueError, match="slot 0"):
            SparseHermitian(np.array([[1, 0], [0, 1]]), np.ones((2, 2)))
        with pytest.raises(ValueError, match="one shape"):
            SparseHermitian(np.array([[0, 1], [1, 0]]), np.ones((2, 1)))


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
        amps[basis.vectors.tolist().index([4, 0, 0])] = 1.0
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
        top = rdm(state, k).matrix
        for order in range(1, k):
            direct = rdm(state, order).matrix
            assert np.max(np.abs(partial_trace_last(top, d, k, k - order) - direct)) <= 1e-14
        assert partial_trace_last(top, d, k, 0) is top
        np.testing.assert_allclose(partial_trace_last(top, d, k, k), [[1.0]], atol=1e-14)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_dense_order_refused_before_allocating(self, derivative):
        # order 15 at d = 2 passes the walk's byte guard; its dense matrices are 16 GiB each
        state = embed_product_state(np.array([0.6, 0.8]), 20)
        h = build_hamiltonian(HamiltonianSpec(2, {1: SZ}), 20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^dense d\^k x d\^k matrices at order k, .* "
                               r"bytes = \d+ > 4294967296; the largest workable order for d=2 is 12$"):
                rdm_derivative(state, h, 15) if derivative else rdm(state, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
