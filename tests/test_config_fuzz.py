"""Property test of the config boundary: a valid config with one field
replaced by an arbitrary JSON-like value either validates to a config whose
numbers are all finite, or is rejected with ConfigError.  Validation only:
no runner is called, so no fuzzed size can allocate anything."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bosonlab import HamiltonianSpec  # noqa: E402
from bosonlab.experiments import ConfigError, config_from_dict  # noqa: E402

from .test_experiments import base_config  # noqa: E402

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, 2**64, -(2**64), 10**400])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
JSON_LIKE = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# near-valid shapes: lists of [re, im] pairs (phi) and square matrices of them
PAIRS = st.lists(st.lists(SCALARS, min_size=2, max_size=2), min_size=1, max_size=3)
VALUES = JSON_LIKE | PAIRS | st.lists(PAIRS, min_size=1, max_size=3)

FIELDS = [
    "scenario",
    "spec",
    "spec.d",
    "spec.max_order",
    "spec.terms",
    "spec.terms.2",
    "n_values",
    "time_grid",
    "initial_phi",
    "integrator_tol",
    "seed",
    "vtilde_strategy",
    "output_path",
    "obs_m",
    "obs_n",
    "n_samples",
    "k_values",
]


def _finite(value):
    if isinstance(value, (str, int)):  # Python ints are exact
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    if isinstance(value, HamiltonianSpec):
        return all(_finite(v) for v in value.terms.values())
    return bool(np.all(np.isfinite(value)))


@settings(max_examples=400, deadline=1000, derandomize=True, database=None)
@given(field=st.sampled_from(FIELDS), value=VALUES)
def test_one_replaced_field_validates_or_raises_config_error(field, value):
    cfg = base_config()
    node, *path = field.split(".")
    if path:
        target = cfg[node]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        cfg[node] = value
    try:
        config = config_from_dict(cfg)
    except ConfigError:
        return
    for name in vars(config):
        assert _finite(getattr(config, name)), name
