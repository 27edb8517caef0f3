"""The resource policy: refuse, the prices the guards and the config check
share, and which configs the config check admits."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bosonlab import HamiltonianSpec, SparseHermitian, _limits, build_hamiltonian, exact_dynamics
from bosonlab._limits import MAX_CHEBYSHEV_TERMS, MAX_KERNEL_WORK, refuse
from bosonlab.exact_dynamics import (
    _LOG_UNIT_ROUNDOFF, _chebyshev_terms, _enclosure, propagation_terms, propagation_work,
)
from bosonlab.experiments import SCENARIOS, config_from_dict
from bosonlab.symmetric_space import grid_layout, sector_size, spectral_interval

from .conftest import SPEC_FAMILIES, random_spec, substream
from .test_hartree import _workload

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestRefuse:
    def test_returns_the_price_within_the_limit(self):
        assert refuse(lambda v: 3 * v, 4, 12, "three a unit", "v") == 12

    @pytest.mark.parametrize("cost", [math.nan, math.inf])
    def test_nan_and_inf_refuse(self, cost):
        with pytest.raises(ValueError, match=f"^priced = {cost} > 10$"):
            refuse(lambda v: cost, 1, 10, "priced", None)

    @pytest.mark.parametrize("value", [13, 10**18])
    def test_bisection_names_the_largest_workable_value(self, value):
        # a step function: every v up to 12 fits, and none past it
        with pytest.raises(ValueError, match="; the largest workable v is 12$"):
            refuse(lambda v: 0 if v <= 12 else 100, value, 50, "steps", "v")

    def test_no_workable_value(self):
        with pytest.raises(ValueError, match=r"^bytes = 7 > 5; no v fits$"):
            refuse(lambda v: v + 7, 0, 5, "bytes", "v")

    def test_every_limit_is_defined_in_one_module(self):
        src = Path(_limits.__file__).parent
        for name in (n for n in vars(_limits) if n.startswith("MAX_")):
            defined = [p.name for p in src.glob("*.py") if f"\n{name} = " in p.read_text()]
            assert defined == ["_limits.py"], name


def _linear_scan(d, n_active, n_times, n_pairs):
    """The largest workable N of commutator growth, counted up one N at a time."""
    max_n = n_active - 1
    while exact_dynamics.block_work(d, max_n + 1, n_active, n_times, n_pairs) <= MAX_KERNEL_WORK:
        max_n += 1
    return max_n


@pytest.mark.parametrize(
    "d, n_active, n_times, n_pairs, expected",
    [(2, 2, 5, 1, 275), (2, 2, 5, 4, 201), (3, 2, 1, 1, 7), (2, 3, 2, 16, None), (4, 2, 3, 1, None)],
)
def test_bisection_matches_the_linear_scan(d, n_active, n_times, n_pairs, expected):
    # 275 and 201 are README's: one pair and configs/lr.json's four, at five times
    max_n = _linear_scan(d, n_active, n_times, n_pairs)
    assert expected in (None, max_n)
    for n in (max_n + 1, 10**6, 10**18):
        with pytest.raises(ValueError, match=f"and {n_times} times is {max_n}$"):
            exact_dynamics._guard_blocks(d, n, n_active, n_times, n_pairs)


def _linear_terms(x):
    """_chebyshev_terms as a linear walk up from K = max(ceil(x), 1), the bound updated by
    its ratio x / 2K at each step."""
    if not x <= MAX_CHEBYSHEV_TERMS:
        return math.inf
    k = max(math.ceil(x), 1)
    log_bound = k * (math.log(x) - math.log(2)) - math.lgamma(k + 1) if x > 0 else -math.inf
    while log_bound >= _LOG_UNIT_ROUNDOFF and k <= MAX_CHEBYSHEV_TERMS:
        k += 1
        log_bound -= math.log(2 * k / x)
    return k if k <= MAX_CHEBYSHEV_TERMS else math.inf


def test_bisected_terms_match_the_linear_walk():
    # past x = 7.36e5 both are inf: K would pass MAX_CHEBYSHEV_TERMS
    xs = np.geomspace(1e-3, 1e6, 181).tolist() + [0.0, 7.35e5, 7.37e5, math.inf, math.nan]
    got = [_chebyshev_terms(x) for x in xs]
    assert got == [_linear_terms(x) for x in xs]
    assert got[-5:] == [1, 998998, math.inf, math.inf, math.inf]


def _draws():
    rng = substream(71, "ceilings")
    caps = {2: 40, 3: 20, 4: 10}  # N <= 40, and at d = 4 a sector small enough to assemble fast
    for i in range(24):
        d = int(rng.integers(2, 5))
        orders = tuple(m for m in (1, 2, 3) if rng.random() < 0.6) or (2,)
        n = int(rng.integers(max(orders), caps[d] + 1))
        yield pytest.param(d, orders, n, float(rng.uniform(0.05, 30.0)), int(rng.integers(2**32)),
                           id=f"{i}-d{d}-m{''.join(map(str, orders))}-N{n}")


def _summed_terms(radius, times):
    """evolve_exact's terms over the grid: K(R dt) for each interval, the first from 0."""
    return sum(_chebyshev_terms(radius * dt) for dt in np.diff(times, prepend=0.0) if dt)


def _gershgorin(h):
    """The center and half-width of H's Gershgorin interval alone, as of rows given by hand."""
    return _enclosure(SparseHermitian(h.cols, h.values))


@pytest.mark.parametrize("d, orders, n, t, seed", _draws())
def test_propagation_price_bounds_the_hamiltonian(d, orders, n, t, seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, d, orders, unit_norm=False)
    h = build_hamiltonian(spec, n)
    radius = _enclosure(h)[1]
    width = grid_layout(spec)[1]
    lo, hi = spectral_interval(spec, n)
    assert h.interval == (lo, hi)
    assert radius <= min((hi - lo) / 2, _gershgorin(h)[1])  # never wider than either
    assert sector_size(d, n) * width >= h.cols.size  # each matvec touches every cell
    # one interval, a grid from 0, and one of uneven intervals ending at t
    for times in ([t], np.linspace(0.0, t, 9), np.append(np.sort(rng.uniform(0.0, t, 6)), t)):
        terms = _summed_terms(radius, times)
        assert propagation_terms(spec, n, times) == _summed_terms((hi - lo) / 2, times) >= terms
        assert propagation_work(spec, n, times) * width >= h.cols.size * terms


def _weyl_draws():
    rng = substream(71, "weyl")
    for i in range(30):
        d = int(rng.integers(1, 4))
        orders = tuple(m for m in (1, 2, 3) if rng.random() < 0.6) or (int(rng.integers(1, 4)),)
        n = int(rng.integers(max(orders), 11))
        yield pytest.param(d, orders, n, int(rng.integers(2**32)),
                           id=f"{i}-d{d}-m{''.join(map(str, orders))}-N{n}")


@pytest.mark.parametrize("family", sorted(SPEC_FAMILIES))
@pytest.mark.parametrize("d, orders, n, seed", _weyl_draws())
def test_weyl_interval_holds_the_spectrum(d, orders, n, seed, family):
    # to rounding: a one-body H reaches both ends, at the product states of V's extreme
    # eigenvectors, so the dense eigenvalues may pass them by a few ulps
    spec = SPEC_FAMILIES[family](np.random.default_rng(seed), d, orders)
    h = build_hamiltonian(spec, n)
    lo, hi = spectral_interval(spec, n)
    eigenvalues = np.linalg.eigvalsh(np.asarray(h))
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    assert lo - slack <= eigenvalues[0] and eigenvalues[-1] <= hi + slack
    center, radius = _enclosure(h)
    assert lo - slack <= center - radius and center + radius <= hi + slack
    g_center, g_radius = _gershgorin(h)
    assert g_center - g_radius - slack <= center - radius
    assert center + radius <= g_center + g_radius + slack


def test_huge_n_reads_an_unbounded_interval():
    spec = random_spec(np.random.default_rng(3), 2, (1, 2))
    assert spectral_interval(spec, 10**400) == (-math.inf, math.inf)
    assert propagation_work(spec, 10**400, [0.0, 1.0]) == math.inf
    assert all(map(math.isfinite, spectral_interval(spec, 10**300)))


def test_cells_of_an_operator_without_terms():
    # the layout stores every diagonal, even of H = 0
    spec = HamiltonianSpec(2, {})
    h = build_hamiltonian(spec, 5)
    assert sector_size(2, 5) * grid_layout(spec)[1] == h.cols.size == h.nnz == 6


@pytest.mark.parametrize("x", [0.0, 1e-12, 0.3, 1.0, 7.0, 19.9, 20.0, 54.0, 1e3, 123456.7])
@pytest.mark.parametrize("grid", ["one", "from 0", "halves", "many"])
def test_priced_terms_are_the_chebyshev_terms(x, grid):
    # the price's terms where the Weyl half-width is 1: one-body sigma_z at N = 1
    spec = HamiltonianSpec(2, {1: np.diag([1.0, -1.0])})
    # at x = 0 no grid has an interval, and both sides are 0
    times = {"one": [x], "from 0": [0.0, x], "halves": [x / 2, x],
             "many": np.linspace(x / 40, x, 40)}[grid]
    assert spectral_interval(spec, 1) == (-1.0, 1.0)
    assert propagation_terms(spec, 1, times) == _summed_terms(1.0, times)
    assert propagation_work(spec, 1, times) == sector_size(2, 1) * _summed_terms(1.0, times)


def _shipped(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


def _ladder_rung(workload, n):
    cfg = {**_workload(workload, 7), "scenario": "converge", "n_values": [n]}
    cfg["time_grid"] = [0.0, 0.25, 0.5, 0.75, 1.0]
    for key in ("obs_m", "obs_n", "n_samples"):
        cfg.pop(key, None)
    return cfg


@pytest.mark.parametrize(
    "cfg",
    [pytest.param(_shipped(name), id=name) for name in SCENARIOS]
    + [pytest.param(_workload(w, seed), id=f"{w}-{seed}")
       for w in ("converge_sector", "corr_rdm", "lr_fullspace") for seed in range(20)]
    + [pytest.param(_ladder_rung("lr_fullspace", n), id=f"ladder-d2-N{n}") for n in (4096, 16384)]
    + [pytest.param(_ladder_rung("converge_sector", 240), id="ladder-d3-N240")]
    + [pytest.param({**_shipped("converge"), "n_values": [2048]}, id="converge-N2048")]
    # the 1/N coefficient's long grid at large N: 481 times to t = 120 at N = 4096
    + [pytest.param({**_shipped("converge"), "n_values": [4096],
                     "time_grid": np.linspace(0.0, 120.0, 481).tolist()}, id="converge-N4096-t120")],
)
def test_workable_configs_are_admitted(cfg):
    # config validation only: nothing runs
    assert config_from_dict(cfg).scenario == cfg["scenario"]


@pytest.mark.parametrize(
    "cfg",
    [pytest.param(_shipped(name), id=name) for name in ("converge", "corr", "bbgky")]
    + [pytest.param(_workload(w, seed), id=f"{w}-{seed}")
       for w in ("converge_sector", "corr_rdm") for seed in range(20)],
)
def test_price_is_the_run(cfg):
    # the cells x terms the config check prices against those evolve_exact runs, N by N:
    # never fewer, at most 1.5x (1.0 to 1.18x measured); and Weyl never adds a term
    config = config_from_dict(cfg)
    width = grid_layout(config.spec)[1]
    for n in config.n_values:
        h = build_hamiltonian(config.spec, n)
        radius = _enclosure(h)[1]
        run = h.cols.size * _summed_terms(radius, config.time_grid)
        price = propagation_work(config.spec, n, config.time_grid) * width
        assert run <= price <= 1.5 * run
        for dt in np.diff(config.time_grid, prepend=0.0):
            assert _chebyshev_terms(radius * dt) <= _chebyshev_terms(_gershgorin(h)[1] * dt)
