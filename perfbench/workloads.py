"""Seeded workload generator: one seed gives one bosonlab config per workload.

The program only ever receives the JSON documents built here.  The
potentials (random Hermitian, slot-symmetrized, unit spectral norm), the
initial one-particle state and the config ``seed`` all come from the
workload seed; the problem sizes do not, so the cost of a run does not
depend on the seed and a fresh seed is a fair re-check.

Why each workload exists is recorded next to its name in BENCHMARK.json.
"""

import zlib

import numpy as np

TIMES_5 = [0.0, 0.25, 0.5, 0.75, 1.0]

# Sizes are fixed so that one optimisation dominates each workload and is
# absent or negligible in the others (dense propagation / RDM contraction /
# full-space commutator growth).
WORKLOADS = {
    "converge_sector": {
        "scenario": "converge",
        "d": 3,
        "n_values": [10, 20, 30, 40, 50],
        "time_grid": TIMES_5,
        # tight enough that the independent Hartree solve in the correctness
        # gate can agree with the program's to 1e-10
        "integrator_tol": 1e-12,
    },
    "corr_rdm": {
        "scenario": "corr",
        "d": 3,
        "n_values": [12, 18, 24],
        "time_grid": [0.0, 0.5, 1.0],
        "obs_m": 1,
        "obs_n": 2,
        "n_samples": 8,
    },
    "lr_fullspace": {
        "scenario": "lr",
        "d": 2,
        "n_values": [8, 9],
        "time_grid": TIMES_5,
        "obs_m": 1,
        "obs_n": 1,
        "n_samples": 3,
    },
}


def _unit_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def _pair_potential(rng, d):
    """Random two-body potential, exactly Hermitian and slot-swap symmetric."""
    h = _unit_hermitian(rng, d * d)
    swapped = h.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    v = (h + swapped) / 2
    return v / np.linalg.norm(v, 2)


def _pairs(matrix):
    return [[[float(x.real), float(x.imag)] for x in row] for row in matrix]


def generate(workload, seed):
    """The config document (a dict ready for json.dumps) of one workload."""
    shape = WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    d = shape["d"]
    v1 = _unit_hermitian(rng, d)
    v2 = _pair_potential(rng, d)
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    phi /= np.linalg.norm(phi)
    config = {
        "scenario": shape["scenario"],
        "spec": {"d": d, "max_order": 2, "terms": {"1": _pairs(v1), "2": _pairs(v2)}},
        "n_values": shape["n_values"],
        "time_grid": shape["time_grid"],
        "initial_phi": [[float(x.real), float(x.imag)] for x in phi],
        "seed": int(rng.integers(2**32)),
        "vtilde_strategy": "canonical",
        "output_path": f"{workload}.csv",
    }
    for key in ("integrator_tol", "obs_m", "obs_n", "n_samples"):
        if key in shape:
            config[key] = shape[key]
    return config
