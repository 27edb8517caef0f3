"""End-to-end acceptance checks.

Each test prints one ``[name] PASS/FAIL: detail`` line so a run with
``pytest tests/test_acceptance.py -v -s`` doubles as a checklist.  The
checks exercise shipped behavior only: no tolerances are loosened to make
a red check green, and a failing line reports the measured numbers.
"""

import json
import math
import time
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from bosonlab import (
    DensityMatrix,
    HamiltonianSpec,
    bbgky_rhs,
    bound_constants,
    build_hamiltonian,
    commutator_growth,
    commutator_growth_bound,
    correlation_gap,
    correlation_gap_bound,
    embed_product_state,
    enumerate_basis,
    evolve_exact,
    hartree,
    hartree_evolve,
    mean_field_energy,
    mean_field_error_bound,
    operator_norm,
    pure_state_density,
    rdm,
    slot_symmetrize,
    trace_distance,
)
from bosonlab.cli import main as cli_main
from bosonlab.experiments import _fit_slope, random_unit_hermitian

from .conftest import SX, SZ, random_spec, substream
from . import oracles
from .oracles import FullSpaceState, fullspace_evolve

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GRID = tuple(i / 10 for i in range(11))  # 0.0, 0.1, ..., 1.0
PHI_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


def _pinned_spec(max_order):
    """Transverse one-body field with a diagonal pair coupling; optional
    unit-norm random three-body term on top."""
    terms = {1: SX, 2: np.kron(SZ, SZ)}
    if max_order >= 3:
        rng = substream(2026, "accept-threebody")
        v3 = slot_symmetrize(oracles.rand_herm(rng, 8), 2, 3)
        terms[3] = v3 / operator_norm(v3)
    return HamiltonianSpec(2, terms)


@pytest.fixture(scope="module")
def pinned_data():
    """Exact-vs-mean-field distances for the pinned spec, both interaction
    depths, on the shared time grid; reused by three checks below."""
    start = time.monotonic()
    data = {"rows": [], "corr_states": {}}
    for max_order, n_values in ((2, (8, 16, 32, 64, 128)), (3, (8, 16, 32, 64))):
        spec = _pinned_spec(max_order)
        traj = hartree_evolve(pure_state_density(PHI_PLUS), spec, GRID, 1e-9)
        consts = bound_constants(spec, "canonical")
        for n in n_values:
            states = evolve_exact(
                build_hamiltonian(spec, n), embed_product_state(PHI_PLUS, n), GRID
            )
            if max_order == 2 and n <= 32:
                data["corr_states"][n] = states
            for i, t in enumerate(GRID):
                dist = trace_distance(rdm(states[i], 1), traj.states[i])
                bound = mean_field_error_bound(consts, n, t)
                data["rows"].append((max_order, n, t, dist, bound))
        data[max_order] = {"spec": spec, "n_values": n_values, "consts": consts}
    data["elapsed"] = time.monotonic() - start
    return data


def test_symmetric_sector_matches_full_space():
    start = time.monotonic()
    worst = {"hamiltonian": 0.0, "evolution": 0.0, "rdm": 0.0}
    for i in range(20):
        rng = substream(2026, "accept-sector", i)
        d = int(rng.integers(2, 4))
        max_order = int(rng.integers(2, 4))
        n = int(rng.integers(3, 5))
        spec = random_spec(rng, d, tuple(range(1, max_order + 1)))
        basis = enumerate_basis(d, n)
        isometry = oracles.symmetric_isometry(basis)

        h_sym = build_hamiltonian(spec, n, basis)
        h_full = oracles.hamiltonian_brute(spec, n)
        worst["hamiltonian"] = max(
            worst["hamiltonian"],
            float(np.max(np.abs(isometry.conj().T @ h_full @ isometry - h_sym))),
        )

        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi /= np.linalg.norm(phi)
        sym_states = evolve_exact(h_sym, embed_product_state(phi, n), (0.0, 0.7))
        full_states = fullspace_evolve(
            h_full, FullSpaceState(d, n, reduce(np.kron, [phi] * n)), (0.0, 0.7)
        )
        for sym_state, full_state in zip(sym_states, full_states):
            worst["evolution"] = max(
                worst["evolution"],
                float(
                    np.max(
                        np.abs(
                            isometry.conj().T @ full_state.amplitudes
                            - sym_state.amplitudes
                        )
                    )
                ),
            )
            rho = np.outer(full_state.amplitudes, full_state.amplitudes.conj())
            for k in (1, 2):
                reduced = oracles.trace_out_last(rho, d, n, n - k)
                worst["rdm"] = max(
                    worst["rdm"], float(np.max(np.abs(rdm(sym_state, k).matrix - reduced)))
                )
    elapsed = time.monotonic() - start
    ok = all(v <= 1e-10 for v in worst.values()) and elapsed < 60
    detail = (
        f"20 specs, worst |dH|={worst['hamiltonian']:.2e}, "
        f"|dpsi|={worst['evolution']:.2e}, |dgamma_k|={worst['rdm']:.2e}, "
        f"{elapsed:.1f}s (limit 60s)"
    )
    _report("sector-equivalence", ok, detail)
    assert ok, detail


def test_mean_field_convergence_rate_pinned_spec(pinned_data):
    slopes = {}
    ratio_tables = {}
    for max_order in (2, 3):
        pts = [
            (n, dist)
            for (mo, n, t, dist, _) in pinned_data["rows"]
            if mo == max_order and t == 1.0
        ]
        slopes[max_order] = _fit_slope(*zip(*pts))
        ratio_tables[max_order] = ", ".join(f"{n}:{n * dist:.3f}" for n, dist in pts)
    elapsed = pinned_data["elapsed"]
    ok = all(-1.25 <= s <= -0.80 for s in slopes.values()) and elapsed < 120
    detail = (
        f"t=1 log-log slope: pair-coupling run {slopes[2]:.4f}, "
        f"three-body run {slopes[3]:.4f}, required window [-1.25, -0.80]; "
        f"N*distance saturates toward 2 (pair run: {ratio_tables[2]}; "
        f"three-body run: {ratio_tables[3]}), i.e. the 1/N law holds but its "
        f"prefactor is still growing over this N window; {elapsed:.1f}s (limit 120s)"
    )
    _report("convergence-rate", ok, detail)
    assert ok, detail


def test_error_bound_dominates_every_distance(pinned_data):
    margins = [dist - bound for (_, _, _, dist, bound) in pinned_data["rows"]]
    worst = max(margins)
    ok = worst <= 1e-9
    detail = f"max(distance - bound) = {worst:.3e} over {len(margins)} rows (allowed 1e-9)"
    _report("bound-dominance", ok, detail)
    assert ok, detail


def test_commutator_growth_never_exceeds_envelope():
    start = time.monotonic()
    spec = _pinned_spec(2)
    consts = bound_constants(spec, "canonical")
    n_particles = 8
    checked = violations = 0
    worst_margin = -np.inf
    for m, n in ((1, 1), (2, 1)):
        a_stack, b_stack = (
            np.array(
                [random_unit_hermitian(substream(2026, f"{tag}:{m}{n}", s), 2**k) for s in range(16)]
            )
            for tag, k in (("accept-lr-a", m), ("accept-lr-b", n))
        )
        # one stacked call per (m, n), as run_lr makes one per N
        per_sample = commutator_growth(spec, n_particles, m, n, a_stack, b_stack, GRID)
        for a, b, lhs_values in zip(a_stack, b_stack, per_sample):
            for t, lhs in zip(GRID, lhs_values):
                rhs = commutator_growth_bound(m, n, consts, n_particles, t)
                checked += 1
                worst_margin = max(worst_margin, lhs - rhs)
                violations += int(lhs > rhs + 1e-9)
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 120
    detail = (
        f"{violations} violations in {checked} samples, worst lhs-rhs = "
        f"{worst_margin:.3e}, {elapsed:.1f}s (limit 120s)"
    )
    _report("commutator-envelope", ok, detail)
    assert ok, detail


def test_commutator_growth_envelope_at_large_n():
    # the spin-block path at N where the full space (2^N) is out of reach;
    # one sample per case.  N = 128 with m + n = 3 keeps one time: each time
    # there costs about as much as the rest of the test together
    start = time.monotonic()
    spec = _pinned_spec(2)
    free = HamiltonianSpec(2, {1: SX})
    consts = bound_constants(spec, "canonical")
    cases = (
        (64, 1, 1, (0.0, 0.5, 1.0)),
        (64, 2, 1, (0.0, 0.5, 1.0)),
        (128, 1, 1, (0.0, 0.5, 1.0)),
        (128, 2, 1, (1.0,)),
    )
    checked = violations = 0
    worst_margin = -np.inf
    worst_start = worst_free = 0.0
    for n_particles, m, n, times in cases:
        tag = f"{m}{n}:{n_particles}"
        a = random_unit_hermitian(substream(2026, f"accept-lr-large-a:{tag}"), 2**m)
        b = random_unit_hermitian(substream(2026, f"accept-lr-large-b:{tag}"), 2**n)
        lhs_values = commutator_growth(spec, n_particles, m, n, [a], [b], times)[0]
        for t, lhs in zip(times, lhs_values):
            rhs = commutator_growth_bound(m, n, consts, n_particles, t)
            checked += 1
            worst_margin = max(worst_margin, lhs - rhs)
            violations += int(lhs > rhs + 1e-9)
            if t == 0.0:
                worst_start = max(worst_start, lhs)
        if m == 1:
            worst_free = max(worst_free, *commutator_growth(free, n_particles, m, n, [a], [b], [1.0])[0])
    elapsed = time.monotonic() - start
    ok = violations == 0 and worst_start < 1e-12 and worst_free < 1e-11
    detail = (
        f"{violations} violations in {checked} samples at N = 64, 128, worst lhs-rhs = "
        f"{worst_margin:.3e}; largest value at t = 0 {worst_start:.1e}, without "
        f"interactions {worst_free:.1e}; {elapsed:.1f}s"
    )
    _report("commutator-envelope-large-n", ok, detail)
    assert ok, detail


def test_correlation_decay_rate_and_bound(pinned_data):
    spec = pinned_data[2]["spec"]
    consts = pinned_data[2]["consts"]
    states_by_n = pinned_data["corr_states"]

    checked = violations = 0
    for s in range(16):
        a = random_unit_hermitian(substream(2026, "accept-corr-a", s), 2)
        b = random_unit_hermitian(substream(2026, "accept-corr-b", s), 2)
        for n, states in states_by_n.items():
            for i, t in enumerate(GRID):
                lhs = correlation_gap(rdm(states[i], 2), 1, 1, [a], [b])[0]
                rhs = correlation_gap_bound(1, 1, consts, n, t)
                checked += 1
                violations += int(lhs > rhs + 1e-9)

    slopes = {}
    for label, obs in (("zz", SZ), ("xx", SX)):
        pts = [
            (n, correlation_gap(rdm(states[GRID.index(1.0)], 2), 1, 1, [obs], [obs])[0])
            for n, states in states_by_n.items()
        ]
        slopes[label] = _fit_slope(*zip(*pts))
    ok = violations == 0 and all(-1.3 <= s <= -0.7 for s in slopes.values())
    detail = (
        f"{violations} violations in {checked} samples; t=1 gap slope vs N: "
        f"zz {slopes['zz']:.4f}, xx {slopes['xx']:.4f}, window [-1.3, -0.7]"
    )
    _report("correlation-decay", ok, detail)
    assert ok, detail


def test_integrator_conservation_and_rhs_forms():
    worst_drift = {}
    for i in range(50):
        rng = substream(1234, "conserve", i)
        d = int(rng.integers(2, 4))
        max_order = int(rng.integers(2, 4))
        spec = random_spec(rng, d, tuple(range(1, max_order + 1)))
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi /= np.linalg.norm(phi)
        gamma0 = pure_state_density(phi)
        traj = hartree_evolve(gamma0, spec, (0.0, 1.0, 2.0), 1e-9)
        g0, e0 = gamma0.matrix, mean_field_energy(gamma0, spec)
        w0 = np.linalg.eigvalsh(g0)
        for st in traj.states:
            g = st.matrix
            drift = {
                "trace": abs(np.trace(g) - np.trace(g0)),
                "purity": abs(np.trace(g @ g).real - np.trace(g0 @ g0).real),
                "energy": abs(mean_field_energy(st, spec) - e0),
                "hermiticity": float(np.max(np.abs(g - g.conj().T))),
                "spectrum": float(np.max(np.abs(np.linalg.eigvalsh(g) - w0))),
            }
            for key, value in drift.items():
                worst_drift[key] = max(worst_drift.get(key, 0.0), value)

    worst_rhs_gap = 0.0
    for i in range(100):
        rng = substream(1234, "rhsforms", i)
        d = int(rng.integers(2, 4))
        max_order = int(rng.integers(1, 4))
        spec = random_spec(rng, d, tuple(range(1, max_order + 1)), unit_norm=False)
        gamma = DensityMatrix(1, d, oracles.rand_density(rng, d))
        gap = np.max(
            np.abs(
                hartree._rhs(gamma.matrix, hartree._contractions(spec))
                - oracles.literal_mean_field_rhs(gamma.matrix, spec)
            )
        )
        worst_rhs_gap = max(worst_rhs_gap, float(gap))

    ok = all(v <= 1e-7 for v in worst_drift.values()) and worst_rhs_gap <= 1e-12
    drift_text = ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst_drift.items()))
    detail = (
        f"worst drift over 50 specs to t=2: {drift_text} (allowed 1e-7); "
        f"commutator vs partial-trace RHS forms differ by {worst_rhs_gap:.2e} "
        f"over 100 states (allowed 1e-12)"
    )
    _report("integrator-conservation", ok, detail)
    assert ok, detail


def test_hierarchy_rhs_second_order_accuracy():
    rng = substream(2026, "accept-hierarchy")
    spec = random_spec(rng, 2, (1, 2, 3))
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi /= np.linalg.norm(phi)
    n_particles, t, dt = 5, 0.4, 1e-3
    times = (t - dt, t - dt / 2, t, t + dt / 2, t + dt)
    states = evolve_exact(
        build_hamiltonian(spec, n_particles),
        embed_product_state(phi, n_particles),
        times,
    )
    orders = {}
    for k in (1, 2):
        rhs = bbgky_rhs(spec, n_particles, k, rdm(states[2], k + 2))
        residuals = []
        for lo, hi, step in ((0, 4, dt), (1, 3, dt / 2)):
            fd = (rdm(states[hi], k).matrix - rdm(states[lo], k).matrix) / (2 * step)
            residuals.append(float(np.max(np.abs(fd - rhs))))
        orders[k] = math.log2(residuals[0] / residuals[1])
    ok = all(1.8 <= v <= 2.2 for v in orders.values())
    detail = (
        f"halving the stencil step scales the defect by 2^p with "
        f"p(k=1)={orders[1]:.3f}, p(k=2)={orders[2]:.3f}, window [1.8, 2.2]"
    )
    _report("hierarchy-accuracy", ok, detail)
    assert ok, detail


def test_shipped_configs_reproduce_byte_identical_csv(tmp_path):
    mismatched = []
    for name in ("converge", "lr", "corr", "bbgky", "bounds"):
        config_path = CONFIG_DIR / f"{name}.json"
        json.loads(config_path.read_text())  # shipped config must be valid JSON
        blobs = []
        for run in (0, 1):
            out = tmp_path / f"{name}.{run}.csv"
            code = cli_main([name, "--config", str(config_path), "--out", str(out)])
            assert code == 0, f"{name} run {run} exited {code}"
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            mismatched.append(name)
    ok = not mismatched
    detail = (
        "all five shipped configs wrote byte-identical CSV on rerun"
        if ok
        else f"rerun differed for: {', '.join(mismatched)}"
    )
    _report("determinism", ok, detail)
    assert ok, detail
