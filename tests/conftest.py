import hashlib

import numpy as np
import pytest

from bosonlab import HamiltonianSpec, slot_symmetrize

from . import oracles

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def substream(seed, purpose, index=0):
    digest = hashlib.sha256(f"{purpose}:{index}".encode()).digest()
    key = np.array([seed, int.from_bytes(digest[:8], "big")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_spec(rng, d, orders, unit_norm=True):
    """Seeded valid spec: Hermitian, slot-symmetrized terms, optional norm-1 scaling."""
    terms = {}
    for m in orders:
        v = slot_symmetrize(oracles.rand_herm(rng, d**m), d, m)
        if unit_norm:
            norm = np.linalg.norm(v, 2)
            if norm > 0:
                v = v / norm
        terms[m] = v
    return HamiltonianSpec(d, terms)


def structured_spec(rng, d, orders):
    """Seeded valid spec with structurally zero diagonals (oracles.structured_terms)."""
    return HamiltonianSpec(d, oracles.structured_terms(rng, d, orders))


# spec families for the operator and propagation oracle comparisons
SPEC_FAMILIES = {
    "random": lambda rng, d, orders: random_spec(rng, d, orders, unit_norm=False),
    "structured": structured_spec,
}


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
