import numpy as np

from bosonlab import enumerate_basis
from bosonlab._kernels import decode_digits, mbody_triples, rdm_matrix

from .conftest import substream
from . import oracles


class TestDecodeDigits:
    def test_two_level_pairs(self):
        table = decode_digits(2, 2)
        assert table.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_rows_reconstruct_linear_index(self):
        for d, order in ((2, 3), (3, 2), (4, 1)):
            table = decode_digits(d, order)
            powers = d ** np.arange(order - 1, -1, -1)
            assert (table @ powers == np.arange(d**order)).all()


def _mbody_args(d, n, m, seed):
    rng = substream(seed, "kern")
    basis = enumerate_basis(d, n)
    vmat = np.ascontiguousarray(oracles.rand_herm(rng, d**m))
    return (
        basis.vectors,
        basis.keys_ascending,
        basis.positions_ascending,
        np.int64(n + 1),
        vmat,
        decode_digits(d, m),
        0.37,
    )


def _rdm_args(d, n, k, seed):
    rng = substream(seed, "kern")
    basis = enumerate_basis(d, n)
    amps = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    amps /= np.linalg.norm(amps)
    digits = np.ascontiguousarray(np.sort(decode_digits(d, k), axis=1))
    return (
        basis.vectors,
        basis.keys_ascending,
        basis.positions_ascending,
        np.int64(n + 1),
        np.ascontiguousarray(amps),
        digits,
        0.25,
    )


class TestPurePythonKernelProperties:
    def test_mbody_scale_is_linear(self):
        args = list(_mbody_args(2, 4, 2, seed=3))
        rows, cols, values = mbody_triples(*args)
        args[-1] = 2 * args[-1]
        rows2, cols2, values2 = mbody_triples(*args)
        np.testing.assert_array_equal(rows2, rows)
        np.testing.assert_array_equal(cols2, cols)
        np.testing.assert_allclose(values2, 2 * values, atol=1e-13)

    def test_rdm_output_hermitian(self):
        out = rdm_matrix(*_rdm_args(2, 5, 2, seed=5))
        np.testing.assert_allclose(out, out.conj().T, atol=1e-13)
