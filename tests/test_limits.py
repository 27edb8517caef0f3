"""The resource policy: refuse, the prices the guards and the config check
share, and which configs the config check admits."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bosonlab import HamiltonianSpec, _limits, build_hamiltonian, exact_dynamics
from bosonlab._limits import MAX_KERNEL_WORK, refuse
from bosonlab.exact_dynamics import _chebyshev_terms, _enclosure, _radius_ceiling, propagation_work
from bosonlab.experiments import SCENARIOS, config_from_dict
from bosonlab.symmetric_space import operator_entries

from .conftest import random_spec, substream
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


def _draws():
    rng = substream(71, "ceilings")
    caps = {2: 40, 3: 20, 4: 10}  # N <= 40, and at d = 4 a sector small enough to assemble fast
    for i in range(24):
        d = int(rng.integers(2, 5))
        orders = tuple(m for m in (1, 2, 3) if rng.random() < 0.6) or (2,)
        n = int(rng.integers(max(orders), caps[d] + 1))
        yield pytest.param(d, orders, n, float(rng.uniform(0.05, 30.0)), int(rng.integers(2**32)),
                           id=f"{i}-d{d}-m{''.join(map(str, orders))}-N{n}")


@pytest.mark.parametrize("d, orders, n, t, seed", _draws())
def test_propagation_price_bounds_the_hamiltonian(d, orders, n, t, seed):
    spec = random_spec(np.random.default_rng(seed), d, orders, unit_norm=False)
    h = build_hamiltonian(spec, n)
    radius = _enclosure(h)[1]
    entries = operator_entries(d, n, spec.present_orders)
    assert _radius_ceiling(spec, n) >= radius
    assert entries >= h.nnz
    assert propagation_work(spec, n, t) / entries >= _chebyshev_terms(radius * t)
    assert propagation_work(spec, n, t) >= h.nnz * _chebyshev_terms(radius * t)


def test_entries_bound_an_operator_without_terms():
    # the layout stores every diagonal, even of H = 0
    h = build_hamiltonian(HamiltonianSpec(2, 1, {}), 5)
    assert operator_entries(2, 5, ()) >= h.nnz == 6


@pytest.mark.parametrize("x", [0.0, 1e-12, 0.3, 1.0, 7.0, 19.9, 20.0, 54.0, 1e3, 123456.7])
def test_term_ceiling_bounds_the_chebyshev_terms(x):
    # propagation_work's terms where the priced R is 1: one 1 x 1 order-1 term of norm 1
    spec = random_spec(np.random.default_rng(0), 1, (1,))
    terms = propagation_work(spec, 1, x) / operator_entries(1, 1, (1,))
    assert _radius_ceiling(spec, 1) == 1.0
    assert terms >= _chebyshev_terms(x)


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
    + [pytest.param({**_shipped("converge"), "n_values": [2048]}, id="converge-N2048")],
)
def test_workable_configs_are_admitted(cfg):
    # config validation only: nothing runs
    assert config_from_dict(cfg).scenario == cfg["scenario"]
