import math
import tracemalloc

import numpy as np
import pytest

from bosonlab import (
    SparseHermitian,
    build_hamiltonian,
    build_symmetric_operator,
    embed_product_state,
    enumerate_basis,
    experiments,
    rdm,
    symmetric_space,
)
from bosonlab.experiments import config_from_dict, run_convergence, run_corr
from bosonlab.symmetric_space import MAX_WALK_BYTES, ladder_walk, multiset_map

from .conftest import random_spec, substream
from .test_experiments import base_config
from . import oracles


class TestMultisetMap:
    def test_two_level_pairs(self):
        multisets, index = multiset_map(2, 2)
        assert multisets == [(0, 0), (0, 1), (1, 1)]
        assert index.tolist() == [0, 1, 1, 2]

    def test_every_linear_index_maps_to_its_sorted_digits(self):
        for d, k in ((1, 3), (2, 3), (3, 2), (3, 3), (4, 1), (4, 2)):
            multisets, index = multiset_map(d, k)
            assert len(multisets) == math.comb(d + k - 1, k)
            for lin in range(d**k):
                digits = [(lin // d ** (k - 1 - s)) % d for s in range(k)]
                assert multisets[index[lin]] == tuple(sorted(digits))


def _walk(basis, k):
    """The chains of every step of the walk, by (i, j)."""
    return {
        (i, j): (rows[i], cols, factor[i])
        for j, rows, cols, factor in ladder_walk(basis, k)
        for i in range(len(rows))
    }


def _chains(basis, k):
    """Reference walk, one chain at a time: a_J then a+_I applied to every
    occupation vector, the factor multiplied up slot by slot, and each
    result located by its basis position."""
    multisets, _ = multiset_map(basis.d, k)
    for j, annihilate in enumerate(multisets):
        occ = basis.vectors.copy()
        f_ann = np.ones(basis.size)
        for mode in annihilate:
            f_ann *= occ[:, mode]
            occ[:, mode] -= 1
        live = f_ann > 0
        if not live.any():
            continue
        occ, f_ann, cols = occ[live], f_ann[live], np.flatnonzero(live)
        for i, create in enumerate(multisets):
            occ_out = occ.copy()
            f_cre = np.ones(cols.size)
            for mode in create:
                occ_out[:, mode] += 1
                f_cre *= occ_out[:, mode]
            yield i, j, basis.positions(occ_out), cols, np.sqrt(f_ann * f_cre)


def _reference_assembly(basis, terms):
    """Assembly of (order, V, prefactor) triples from the reference chains,
    in the walk's (J, then I) order."""
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.complex128))]
    for m, v, prefactor in terms:
        multisets, index = multiset_map(basis.d, m)
        weights = np.zeros((len(multisets), len(multisets)), dtype=np.complex128)
        np.add.at(weights, (index[:, None], index[None, :]), v)
        weights *= float(prefactor) / math.factorial(m)
        for i, j, rows, cols, factor in _chains(basis, m):
            if weights[i, j] != 0 or weights[j, i] != 0:
                parts.append((rows, cols, weights[i, j] * factor))
    rows, cols, values = (np.concatenate(p) for p in zip(*parts))
    return SparseHermitian.from_triples(basis.size, rows, cols, values)


class TestLadderWalk:
    def test_one_factor_on_dicke_state(self):
        # a+_0 a+_0 a_0 a_1 |3, 2> = sqrt(3 * 2) sqrt(3 * 4) |4, 1>
        basis = enumerate_basis(2, 5)
        rows, cols, factor = _walk(basis, 2)[(0, 1)]  # I = (0, 0), J = (0, 1)
        at = np.flatnonzero(cols == basis.positions(np.asarray((3, 2))))
        assert at.size == 1
        assert rows[at[0]] == basis.positions(np.asarray((4, 1)))
        assert factor[at[0]] == math.sqrt(72)

    def test_pairs_are_multiset_pairs_and_dead_chains_are_dropped(self):
        walk = _walk(enumerate_basis(3, 4), 2)
        assert len(walk) == math.comb(4, 2) ** 2
        assert not _walk(enumerate_basis(3, 1), 2)  # a_J kills every 1-particle state

    def test_reversed_pair_is_the_adjoint(self):
        # (a+_I a_J)^dagger = a+_J a_I: the same matrix elements, transposed
        walk = _walk(enumerate_basis(3, 5), 2)
        for (i, j), (rows, cols, factor) in walk.items():
            back_rows, back_cols, back_factor = walk[(j, i)]
            forward = sorted(zip(rows.tolist(), cols.tolist(), factor.tolist()))
            assert forward == sorted(zip(back_cols.tolist(), back_rows.tolist(), back_factor.tolist()))

    def test_assembly_scale_is_linear(self):
        basis = enumerate_basis(2, 4)
        v = oracles.rand_herm(substream(3, "kern"), 4)
        once = build_symmetric_operator(v, 2, basis, 0.37)
        twice = build_symmetric_operator(v, 2, basis, 0.74)
        np.testing.assert_array_equal(twice.cols, once.cols)
        np.testing.assert_allclose(twice.values, 2 * once.values, atol=1e-13)

    @pytest.mark.parametrize(
        "d, n, k", [(1, 3, 2), (2, 7, 3), (2, 300, 2), (2, 16384, 2), (3, 7, 3), (4, 6, 2), (3, 4, 4)]
    )
    def test_bit_equal_to_one_chain_at_a_time(self, d, n, k):
        # at (2, 16384, 2) the products under the square root pass 2^53
        basis = enumerate_basis(d, n)
        walk = _walk(basis, k)
        reference = {(i, j): chain for i, j, *chain in _chains(basis, k)}
        assert walk.keys() == reference.keys()
        for key, chain in reference.items():
            for got, expected in zip(walk[key], chain):
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()

    def test_compiled_once_per_basis_and_order(self):
        basis = enumerate_basis(3, 6)
        compiled = basis.walk(2)
        assert basis.walk(2) is compiled
        streamed = list(ladder_walk(basis, 2))
        assert [step[0] for step in compiled] == [step[0] for step in streamed]
        for (_, rows, cols, factor), (_, rows64, cols64, factor64) in zip(compiled, streamed):
            assert rows.dtype == cols.dtype == np.int32
            np.testing.assert_array_equal(rows, rows64)
            np.testing.assert_array_equal(cols, cols64)
            assert factor.tobytes() == factor64.tobytes()

    def test_walk_bytes_refused_before_compiling(self):
        state = embed_product_state(np.full(4, 0.5), 60)  # 39711 states
        # order 5: 3136 pairs, each over the D(55) = 30856 states a_J leaves
        nbytes = 16 * math.comb(8, 5) ** 2 * math.comb(58, 3)
        assert nbytes > MAX_WALK_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"bytes = {nbytes} > "):
                rdm(state, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert 5 not in state.basis._walks  # nothing was kept

    def test_walk_bytes_charge_the_exact_entry_count(self, monkeypatch):
        basis = enumerate_basis(3, 24)
        walk = list(ladder_walk(basis, 3))
        entries = sum(rows.size for _, rows, _, _ in walk)
        assert entries == math.comb(5, 3) ** 2 * math.comb(23, 2)  # C(d+k-1, k)^2 D(N-k)
        monkeypatch.setattr(symmetric_space, "MAX_WALK_BYTES", 16 * entries - 1)
        with pytest.raises(ValueError, match=f"16 \\* C.* bytes = {16 * entries} > "):
            basis.walk(3)
        monkeypatch.setattr(symmetric_space, "MAX_WALK_BYTES", 16 * entries)
        assert len(basis.walk(3)) == len(walk)
        assert enumerate_basis(2, 3).walk(5) == []  # past N no state is left: nothing charged

    @pytest.mark.parametrize("d, n", [(2, 9), (3, 6), (4, 4)])
    def test_assembly_bit_identical_to_one_chain_at_a_time(self, d, n):
        spec = random_spec(substream(61, "walk-assembly", d), d, (1, 2, 3), unit_norm=False)
        basis = enumerate_basis(d, n)
        h = build_hamiltonian(spec, n, basis)
        terms = [(m, spec.terms[m], float(n) ** (1 - m)) for m in spec.present_orders]
        reference = _reference_assembly(basis, terms)
        for name in ("cols", "values"):
            got, expected = getattr(h, name), getattr(reference, name)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def _count_compiled_walks(monkeypatch):
    """Record the order of every walk a basis compiles, and the order of
    every rdm call the runners make."""
    compiled, calls = [], []
    compile_walk = symmetric_space._compile_walk

    def counting_compile(basis, k):
        compiled.append(k)
        return compile_walk(basis, k)

    def counting_rdm(state, k):
        calls.append(k)
        return rdm(state, k)

    monkeypatch.setattr(symmetric_space, "_compile_walk", counting_compile)
    monkeypatch.setattr(experiments, "rdm", counting_rdm)
    return compiled, calls


class TestOneWalkPerBasis:
    def test_corr_compiles_one_walk_per_n(self, monkeypatch):
        compiled, calls = _count_compiled_walks(monkeypatch)
        config = config_from_dict(
            base_config(
                scenario="corr", n_values=[4, 6, 8], time_grid=[0.0, 0.5, 1.0], obs_n=2, n_samples=3
            )
        )
        run_corr(config)
        assert compiled == [3] * 3  # one order-(m+n) walk per N
        assert calls == [3] * 9  # contracted against every (N, t)

    def test_convergence_compiles_one_walk_per_n(self, monkeypatch):
        compiled, calls = _count_compiled_walks(monkeypatch)
        config = config_from_dict(base_config(n_values=[3, 5], time_grid=[0.0, 0.2, 0.4, 0.6]))
        run_convergence(config)
        assert compiled == [1] * 2
        assert calls == [1] * 8
