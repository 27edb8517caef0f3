import math

import numpy as np

from bosonlab import PotentialTerm, build_symmetric_operator, enumerate_basis
from bosonlab.symmetric_space import ladder_walk, multiset_map

from .conftest import substream
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
    return {(i, j): (rows, cols, factor) for i, j, rows, cols, factor in ladder_walk(basis, k)}


class TestLadderWalk:
    def test_one_factor_on_dicke_state(self):
        # a+_0 a+_0 a_0 a_1 |3, 2> = sqrt(3 * 2) sqrt(3 * 4) |4, 1>
        basis = enumerate_basis(2, 5)
        rows, cols, factor = _walk(basis, 2)[(0, 1)]  # I = (0, 0), J = (0, 1)
        at = np.flatnonzero(cols == basis.index_of((3, 2)))
        assert at.size == 1
        assert rows[at[0]] == basis.index_of((4, 1))
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
        term = PotentialTerm(2, oracles.rand_herm(substream(3, "kern"), 4))
        once = build_symmetric_operator(term, basis, 0.37)
        twice = build_symmetric_operator(term, basis, 0.74)
        np.testing.assert_array_equal(twice.rows, once.rows)
        np.testing.assert_array_equal(twice.cols, once.cols)
        np.testing.assert_allclose(twice.values, 2 * once.values, atol=1e-13)
