"""perfbench traces bosonlab functions by name and its counters read their
parameters and results.  A rename or a signature change there does not fail
the benchmark: the layer is reported absent, or its counter is skipped, and
the per-layer metric reads zero.  These checks fail instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from bosonlab import build_hamiltonian, embed_product_state, load_config, rdm, write_rows

from .conftest import random_spec

ROOT = Path(__file__).resolve().parent.parent
# deleted from the program; perfbench still lists it until its own next change
STALE = {"exact_dynamics.fullspace_build"}


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _arguments(function, *args):
    return inspect.signature(function).bind(*args).arguments


def test_every_traced_function_exists():
    layers = [(module, name) for module, name, _ in _tracer().LAYERS]
    missing = {
        f"{module}.{name}"
        for module, name in layers
        if not callable(getattr(importlib.import_module(f"bosonlab.{module}"), name, None))
    }
    assert len(layers) > len(STALE)
    assert missing <= STALE


def test_counters_read_existing_parameters(tmp_path):
    tracer = _tracer()
    # rdm(state, k): the distinct key is (the state's amplitudes, k)
    state = embed_product_state(np.array([0.6, 0.8]), 3)
    assert list(inspect.signature(rdm).parameters)[:2] == ["state", "k"]
    assert tracer._count_rdm(_arguments(rdm, state, 2), None)[1][1] == 2
    # write_rows(path, ..., rows): rows written and bytes
    config = load_config((ROOT / "configs" / "bounds.json").read_text())
    path = tmp_path / "rows.csv"
    rows = [{"kind": "point"}] * 3
    write_rows(path, config, rows)
    params = list(inspect.signature(write_rows).parameters)
    assert params[0] == "path" and params[-1] == "rows"
    counts = tracer._count_rows(_arguments(write_rows, path, config, rows), None)[0]
    assert counts == {"experiments.rows": 3, "bytes": path.stat().st_size}
    # build_hamiltonian's result: nnz, which the counter would otherwise count
    # densely, counts the stored entries (all nonzero for a random spec), not
    # the padding of the fixed-width rows
    h = build_hamiltonian(random_spec(np.random.default_rng(3), 2, (1, 2)), 4)
    assert 0 < h.nnz == np.count_nonzero(np.asarray(h)) < h.values.size
    assert tracer._count_hamiltonian({}, h)[0]["nnz"] == h.nnz
