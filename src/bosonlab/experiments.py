"""Experiment orchestration: config ingestion, scenario runners and their table, CSV output.

Determinism contract: a given config (including its seed) produces
byte-identical output files.  All randomness flows through counter-based
Philox streams keyed by (seed, purpose, index); floats are written with 17
significant digits; rows are emitted in a fixed nested loop order; line
endings are LF.  The first line of every CSV is a comment carrying the
config hash (sha256 over a canonical re-serialization of the keys the
scenario reads, so not of output_path) and ``bosonlab.__version__``, which is
the same whether the package is installed or imported from the source tree.
"""

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._limits import (MAX_BASIS_SIZE, MAX_CHEBYSHEV_TERMS, MAX_DENSE_BYTES, MAX_KERNEL_WORK,
                      MAX_MATVEC_WORK, MAX_OCCUPATION_KEY, MAX_OPERATOR_BYTES, MAX_WALK_BYTES,
                      _dense_peak_bytes, refuse, workable)
from ._tensor import partial_trace_last
from ._version import __version__ as VERSION
from .bounds import (
    commutator_growth_bound,
    correlation_gap_bound,
    mean_field_error_bound,
    trace_distance,
)
from .exact_dynamics import bbgky_rhs, commutator_growth, correlation_gap, evolve_exact
from .exact_dynamics import block_work, propagation_terms, propagation_work, state_bytes
from .hartree import DENSITY_ATOL, _check_times, _guard_steps, hartree_evolve, pure_state_density
from .operators import VTILDE_STRATEGIES, HamiltonianSpec, bound_constants
from .symmetric_space import _BYTES_PER_CELL, build_hamiltonian, embed_product_state, grid_layout
from .symmetric_space import rdm, rdm_derivative, sector_size, walk_bytes

# slack added to every lhs <= rhs check before it counts as a violation
VIOLATION_ATOL = 1e-9

# distances below this are treated as exactly zero when fitting log-log slopes
SLOPE_FLOOR = 1e-13


class ConfigError(ValueError):
    """Config rejected; the message carries a field path."""


def _kind(value):
    # names the type, never the value: repr of a huge int can itself raise
    return type(value).__name__


def _number(value, path):
    # bool is an int subclass but never a valid config number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {_kind(value)}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    return value


def _positive(value, path):
    value = _number(value, path)
    if value <= 0:
        raise ConfigError(f"{path}: must be a positive number")
    return value


def _integer(minimum, limit=None):
    def parse(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {_kind(value)}")
        if value < minimum or (limit is not None and value >= limit):
            bound = f">= {minimum}" if limit is None else f"in [{minimum}, {limit})"
            raise ConfigError(f"{path}: must be an integer {bound}")
        return value

    return parse


def _choice(*options):
    def parse(value, path):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected str, got {_kind(value)}")
        if value not in options:
            raise ConfigError(f"{path}: {value!r} is not one of {', '.join(options)}")
        return value

    return parse


def _scenario(value, path):
    return _choice(*SCENARIOS)(value, path)  # the table at the end of this module


def _nonempty_str(value, path):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: must be a non-empty string")
    return value


def _list(node, path):
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{path}: expected a non-empty list")
    return node


def _int_list(node, path):
    parse = _integer(1)
    values = [parse(x, f"{path}[{i}]") for i, x in enumerate(_list(node, path))]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{path}: values must be strictly increasing")
    return tuple(values)


def _time_grid(node, path):
    times = [_number(x, f"{path}[{i}]") for i, x in enumerate(_list(node, path))]
    try:
        return tuple(_check_times(times).tolist())
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _complex(ndim):
    kind = "a square matrix" if ndim == 2 else "a list"

    def parse(node, path):
        try:
            arr = np.array(node, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{path}: expected {kind} of [re, im] pairs") from None
        shape = arr.shape
        if len(shape) != ndim + 1 or shape[-1] != 2 or (ndim == 2 and shape[0] != shape[1]):
            raise ConfigError(f"{path}: expected {kind} of [re, im] pairs, got shape {shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{path}: entries must be finite")
        return arr[..., 0] + 1j * arr[..., 1]

    return parse


def _spec(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {_kind(node)}")
    unknown = sorted(map(str, set(node) - {"d", "max_order", "terms"}))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")
    for key in ("d", "terms"):
        if key not in node:
            raise ConfigError(f"{path}.{key}: required field is missing")
    d = _integer(1)(node["d"], f"{path}.d")
    if not isinstance(node["terms"], dict):
        raise ConfigError(f"{path}.terms: expected a mapping, got {_kind(node['terms'])}")
    terms = {}
    for key, matrix_node in node["terms"].items():
        where = f"{path}.terms.{key}"
        try:
            order = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: key must be an integer order") from None
        if order < 1:
            raise ConfigError(f"{where}: interaction order must be >= 1")
        if order in terms:
            raise ConfigError(f"{where}: order {order} is given twice")
        terms[order] = _complex(2)(matrix_node, where)
    try:
        spec = HamiltonianSpec(d, terms)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if "max_order" in node:  # optional, and then only a restatement of M
        given = _integer(1)(node["max_order"], f"{path}.max_order")
        if given != spec.max_order:
            raise ConfigError(f"{path}.max_order: {given} is not M = {spec.max_order}, "
                              f"the largest order in {path}.terms")
    return spec


_REQUIRED = object()
# the keys every scenario reads; any other key without a default is required
# only by the scenarios whose Scenario.keys name it
_ALWAYS_READ = ("spec", "scenario", "n_values", "time_grid")


def _key(parse, default=_REQUIRED):
    """A config key: its parser and its default (none: required where read)."""
    return field(metadata={"parse": parse, "default": default})


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A validated config.  Each field declared with ``_key`` is one config
    key; ``config_from_dict`` derives the key set, the defaults and the
    validation from these declarations, and hashes the keys the scenario reads."""

    spec: HamiltonianSpec = _key(_spec)
    scenario: str = _key(_scenario)
    n_values: tuple = _key(_int_list)
    time_grid: tuple = _key(_time_grid)
    initial_phi: np.ndarray = _key(_complex(1))  # None where unread and not given
    integrator_tol: float = _key(_positive, 1e-9)
    seed: int = _key(_integer(0, 2**64), 0)
    vtilde_strategy: str = _key(_choice(*VTILDE_STRATEGIES), "ceiling")
    output_path: str = _key(_nonempty_str, "results.csv")
    obs_m: int = _key(_integer(1), 1)
    obs_n: int = _key(_integer(1), 1)
    n_samples: int = _key(_integer(1), 16)
    k_values: tuple = _key(_int_list, [1])
    config_hash: str


_KEYS = [f for f in fields(ExperimentConfig) if "parse" in f.metadata]


def _canonical(value):
    # JSON form of a parsed value: complex arrays as nested [re, im] pairs
    if isinstance(value, HamiltonianSpec):
        terms = {str(m): _canonical(v) for m, v in value.terms.items()}
        return {"d": value.d, "max_order": value.max_order, "terms": terms}
    if isinstance(value, np.ndarray):
        return np.stack([value.real, value.imag], axis=-1).tolist()
    return value


def config_from_dict(data, overrides=None):
    """Validate a parsed config mapping and freeze it into ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = {**data, **(overrides or {})}
    unknown = sorted(map(str, set(data) - {f.name for f in _KEYS}))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    values = {}
    for f in _KEYS:
        value = data.get(f.name, f.metadata["default"])
        if value is not _REQUIRED:
            values[f.name] = f.metadata["parse"](value, f.name)
        elif f.name in _ALWAYS_READ or f.name in SCENARIOS[values["scenario"]].keys:
            raise ConfigError(f"{f.name}: required field is missing")
        else:  # unread by this scenario
            values[f.name] = None

    phi, d = values["initial_phi"], values["spec"].d
    if phi is not None:
        if phi.size != d:
            raise ConfigError(f"initial_phi: length {phi.size} does not match spec.d = {d}")
        norm_dev = abs(np.linalg.norm(phi) - 1.0)
        if not norm_dev <= DENSITY_ATOL:
            raise ConfigError(f"initial_phi: norm deviates from 1 by {norm_dev:.3e}")
    try:
        _price_run(values)
    except ValueError as exc:  # a library guard's refusal, at config time
        raise ConfigError(str(exc)) from None

    read = _ALWAYS_READ + SCENARIOS[values["scenario"]].keys
    hashed = {key: _canonical(values[key]) for key in read}
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    return ExperimentConfig(**values, config_hash=digest)


def _price_run(values):
    """Refuse, before anything runs, a run past a limit.  Its summed work is priced with the
    last N moved to any v, so that the largest workable v can end n_values."""
    scenario, spec, ns, t = (values[key] for key in ("scenario", "spec", "n_values", "time_grid"))
    if scenario == "bounds":  # closed forms only
        return
    d, m, n, samples = spec.d, values["obs_m"], values["obs_n"], values["n_samples"]
    # (what sets k, k) for each dense order k; no k may pass the smallest N
    orders = [("obs_m + obs_n", m + n)] if scenario in ("lr", "corr") else []
    walks = {1} if scenario == "converge" else {m + n}  # the RDM orders contracted
    if scenario == "bbgky":
        k_max = max(values["k_values"])
        orders = [(f"max(k_values) + {spec.max_order - 1}", k_max + spec.max_order - 1)]
        walks = {k_max + spec.max_order - 1, k_max}
    for path, order in orders:
        # rdm, rdm_derivative, the RDM functionals and run_bbgky peak at 2.0 to 7.0
        # of the 8 matrices counted (README); past an exponent of 64 every d >= 2 refuses
        refuse(lambda k: _dense_peak_bytes(d ** min(k, 64)), order, MAX_DENSE_BYTES,
               f"{path}: dense d^k x d^k matrices at this order k, 8 * 16 * d^(2k) bytes",
               f"order for d={d}")
        if scenario != "lr":  # an RDM's eigvalsh and its functionals, per N and grid time
            refuse(lambda k: len(ns) * len(t) * d ** (3 * min(k, 64)), order, MAX_KERNEL_WORK,
                   f"{path}: dense RDM work at this order k, len(n_values) * len(time_grid) * "
                   f"d^(3k) units", f"order for d={d}")
        if order > ns[0]:
            raise ConfigError(f"{path}: order {order} exceeds N = {ns[0]} in n_values")
    if spec.max_order > ns[0]:  # an M-body term acts on M particles; bbgky's order above is >= M
        raise ConfigError(f"spec.terms: order {spec.max_order} exceeds N = {ns[0]} in n_values")
    if scenario in ("lr", "corr"):
        refuse(lambda s: 16 * s * (d ** (2 * m) + d ** (2 * n)), samples, MAX_DENSE_BYTES,
               f"n_samples: {samples} observable pairs' 16 * n_samples * (d^(2 obs_m) + "
               f"d^(2 obs_n)) bytes", f"n_samples for d={d}, obs_m={m} and obs_n={n}")
    if scenario == "converge":
        _guard_steps(spec, t[-1])

    def summed(cost):  # the run's work over n_values, its last N moved to v
        costs = [cost(x) for x in ns]
        return lambda v: sum(c for x, c in zip(ns, costs) if x < v) + cost(v)

    if scenario == "lr":  # commutator growth builds no basis, operator or walk
        checks = [(summed(lambda x: block_work(d, x, m + n, len(t), samples)), MAX_KERNEL_WORK,
                   "commutator growth summed over N, its work")]
    else:  # propagation dominates, H laid out once for every N: its terms per N, its cells x
        # terms summed over N, then one N's basis, H, walks, states and occupation keys
        width = grid_layout(spec)[1]
        checks = [(lambda x: propagation_terms(spec, x, t), MAX_CHEBYSHEV_TERMS,
                   "one N's propagation, summed in Chebyshev terms"),
                  (summed(lambda x: propagation_work(spec, x, t) * width), MAX_MATVEC_WORK,
                   "propagation summed over N, grid cells x Chebyshev terms"),
                  (lambda x: sector_size(d, x), MAX_BASIS_SIZE, "C(N+d-1, d-1) states"),
                  (lambda x: _BYTES_PER_CELL * sector_size(d, x) * width, MAX_OPERATOR_BYTES,
                   "the operator grid's 128 * D * (1 + moves) bytes")]
        checks += [(lambda x, k=k: walk_bytes(d, x, k), MAX_WALK_BYTES,
                    f"the order-{k} ladder walk's 16 * C(d+k-1, k)^2 * D(N-k) bytes")
                   for k in sorted(walks)]
        checks += [(lambda x: state_bytes(len(t), sector_size(d, x)), MAX_DENSE_BYTES,
                    "the propagated states' 16 * (times + 6) * D bytes"),
                   (lambda x: (x + 1) ** d, MAX_OCCUPATION_KEY, "the occupation keys' (N+1)^d")]
    # each price is non-decreasing in N, so the check that fails first past the largest N that
    # passes them all binds, and its own bisection names that N
    fits = lambda v: all(price(v) <= limit for price, limit, _ in checks)
    if not fits(ns[-1]):
        past = workable(fits, ns[-1]) + 1
        price, limit, what = next(check for check in checks if not check[0](past) <= check[1])
        refuse(price, ns[-1], limit, f"n_values: {what}", "n_values[-1]")


def load_config(text, overrides=None):
    """Parse a JSON config document and validate it."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(data, overrides=overrides)


def _substream(seed, purpose, index):
    """Counter-based Philox stream keyed by (seed, purpose, index)."""
    digest = hashlib.sha256(f"{purpose}:{index}".encode()).digest()
    word = int.from_bytes(digest[:8], "big")
    key = np.array([seed % 2**64, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_unit_hermitian(rng, dim):
    """Hermitian with standard-normal re/im entries, unit spectral norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def _observable_stacks(config, scenario):
    """Stacks of n_samples random unit Hermitians on obs_m and obs_n
    particles, sample s from substream s of "<scenario>:a" and ":b"; drawn
    once for every N."""
    m, n = config.obs_m, config.obs_n
    return tuple(np.array([random_unit_hermitian(_substream(config.seed, purpose, s),
                                                 config.spec.d**order)
                           for s in range(config.n_samples)])
                 for purpose, order in ((f"{scenario}:a", m), (f"{scenario}:b", n)))


def _fit_slope(ns, values):
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    xc = x - x.mean()
    return float((xc @ (y - y.mean())) / (xc @ xc))


def _slope_rows(config, rows, column):
    """One log-log slope row per positive grid time, fitted over N >= 2 M to the mean
    of ``column`` over the point rows at that time and N (one row, or corr's samples)."""
    at = {t: {} for t in config.time_grid if t > 0}
    for row in rows:  # in ascending N, as _each_n returns them
        if row["t"] > 0 and row["N"] >= 2 * config.spec.max_order:
            at[row["t"]].setdefault(row["N"], []).append(row[column])
    slopes = []
    for t, by_n in at.items():
        pts = [(n, v) for n, v in ((n, np.mean(x)) for n, x in by_n.items()) if v > SLOPE_FLOOR]
        slope = _fit_slope(*zip(*pts)) if len(pts) >= 2 else float("nan")
        slopes.append({"kind": "slope", "t": t, "slope": slope})
    return slopes


def _each_n(config, measure):
    """The rows measure(N, H, states) gives for each N in n_values, in ascending N:
    H the fixed-N Hamiltonian, and states the N-fold product of initial_phi evolved
    under H to each grid time.  The largest N, the costliest, runs first, so a
    refusal comes before any other work.  Each N's basis, walks, H and states live
    only through its call, so they are freed before the next N's basis is enumerated."""
    rows = {}
    for n_particles in reversed(config.n_values):
        psi0 = embed_product_state(config.initial_phi, n_particles)
        hamiltonian = build_hamiltonian(config.spec, n_particles, psi0.basis)
        states = evolve_exact(hamiltonian, psi0, config.time_grid)
        rows[n_particles] = list(measure(n_particles, hamiltonian, states))
        del psi0, hamiltonian, states  # before the next N's basis is enumerated
    return [row for n_particles in config.n_values for row in rows[n_particles]]


# ---------------------------------------------------------------------------
# scenario runners


def run_convergence(config):
    """Exact one-particle RDM vs mean-field evolution across N."""
    consts = bound_constants(config.spec)

    @cache  # first read once the largest N has propagated, so its refusal comes first
    def mean_field():
        gamma0 = pure_state_density(config.initial_phi)
        return hartree_evolve(gamma0, config.spec, config.time_grid, config.integrator_tol).states

    def measure(n, _, states):
        for i, (t, state) in enumerate(zip(config.time_grid, states)):
            dist = trace_distance(rdm(state, 1), mean_field()[i])
            bound = mean_field_error_bound(consts, n, t)
            yield {
                "kind": "point",
                "N": n,
                "t": t,
                "trace_distance": dist,
                "mean_field_error_bound": bound,
                "ratio": dist * n,
                "violation": int(dist > bound + VIOLATION_ATOL),
            }

    points = _each_n(config, measure)
    return points + _slope_rows(config, points, "trace_distance")


def _pair_row(config, bound, consts, n_particles, sample, t, lhs):
    """One lr or corr point row: lhs against bound(m, n, ...), the bound for a
    pair of unit-norm observables."""
    m, n = config.obs_m, config.obs_n
    rhs = bound(m, n, consts, n_particles, t)
    at = {"kind": "point", "N": n_particles, "m": m, "n": n, "sample": sample, "t": t}
    return {**at, "lhs": lhs, "rhs": rhs, "violation": int(lhs > rhs + VIOLATION_ATOL)}


def run_lr(config):
    """Heisenberg commutator growth against its closed-form bound."""
    m, n = config.obs_m, config.obs_n
    consts = bound_constants(config.spec)
    a_stack, b_stack = _observable_stacks(config, "lr")
    rows = []
    for n_particles in config.n_values:
        # one call per N: each block is built and diagonalized once for every sample
        sample_lhs = commutator_growth(config.spec, n_particles, m, n, a_stack, b_stack,
                                       config.time_grid)
        rows += [
            _pair_row(config, commutator_growth_bound, consts, n_particles, s, t, lhs)
            for s, lhs_values in enumerate(sample_lhs)
            for t, lhs in zip(config.time_grid, lhs_values)
        ]
    return rows


def run_corr(config):
    """Correlation gap of evolved product states against its bound."""
    m, n = config.obs_m, config.obs_n
    consts = bound_constants(config.spec)
    a_stack, b_stack = _observable_stacks(config, "corr")

    def measure(n_particles, _, states):
        for t, state in zip(config.time_grid, states):
            # one RDM contraction and one pair of marginals per state, for every sample
            sample_lhs = correlation_gap(rdm(state, m + n), m, n, a_stack, b_stack)
            yield from (_pair_row(config, correlation_gap_bound, consts, n_particles, s, t, lhs)
                        for s, lhs in enumerate(sample_lhs))

    points = _each_n(config, measure)
    return points + _slope_rows(config, points, "lhs")


def run_bbgky(config):
    """Hierarchy RHS residuals against the exact RDM derivative.

    One grid time at a time: one rdm at order max(k_values) + M - 1, which
    bbgky_rhs takes for every k, freed before one rdm_derivative at
    max(k_values), whose partial traces give the lower k."""
    spec = config.spec
    d = spec.d
    k_max = max(config.k_values)

    def measure(n_particles, hamiltonian, states):
        rows = []
        for t, state in zip(config.time_grid, states):
            gamma = rdm(state, k_max + spec.max_order - 1)
            rhs = [bbgky_rhs(spec, n_particles, k, gamma) for k in config.k_values]
            del gamma  # the derivative is formed beside rhs only
            exact = rdm_derivative(state, hamiltonian, k_max)
            for k, r in zip(config.k_values, rhs):
                value = float(np.max(np.abs(partial_trace_last(exact, d, k_max, k_max - k) - r)))
                rows.append({"kind": "residual", "N": n_particles, "k": k, "t": t, "value": value})
            del rhs, exact  # no RDM outlives its grid time
        return sorted(rows, key=lambda row: row["k"])  # by k then t

    return _each_n(config, measure)


def run_bounds(config):
    """Bound constants at both ends of the vtilde bracket, plus bound curves."""
    constants = {s: bound_constants(config.spec, s) for s in VTILDE_STRATEGIES}
    rows = [{"kind": "constants", "strategy": s, **asdict(c)} for s, c in constants.items()]
    selected = constants[config.vtilde_strategy]
    return rows + [{"kind": "curve", "strategy": config.vtilde_strategy, "N": n, "t": t,
                    "mean_field_error_bound": mean_field_error_bound(selected, n, t),
                    "commutator_growth_bound": commutator_growth_bound(1, 1, selected, n, t),
                    "correlation_gap_bound": correlation_gap_bound(1, 1, selected, n, t)}
                   for n in config.n_values for t in config.time_grid]


def _cell(value):
    if value is None or value == "":
        return ""
    if isinstance(value, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_rows(path, config, rows):
    """Write scenario rows as CSV with the provenance comment line."""
    columns = SCENARIOS[config.scenario].columns
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"# config_hash={config.config_hash} version={VERSION}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("config_hash",) + columns)
        for row in rows:
            writer.writerow([config.config_hash] + [_cell(row.get(col)) for col in columns])


def count_violations(rows):
    return sum(int(row.get("violation") or 0) for row in rows)


def _curves_for_plot(config, rows):
    """(name, xs, ys) of every curve the scenario declares; groups, and the
    x values in each, in the order the rows first reach them."""
    kind, by, x, ys = SCENARIOS[config.scenario].curves
    groups = {}
    for row in rows:
        if row.get("kind") == kind:
            points = groups.setdefault(tuple(row[col] for col in by), {})
            points.setdefault(row[x], []).append(row)
    curves = []
    for key, points in groups.items():
        # a grid time is named by its index in time_grid, any other column by its value
        label = ".".join(
            f"t{config.time_grid.index(value)}" if col == "t" else f"{col}{value}"
            for col, value in zip(by, key)
        )
        for name, y, take in ys:
            values = [take([row[y] for row in at]) for at in points.values()]
            curves.append((f"{name}.{label}", list(points), values))
    return curves


def write_plot_data(path, config, rows):
    """Two-column .dat files per curve, next to the CSV; returns the paths."""
    stem = str(Path(path).with_suffix(""))
    written = []
    for name, xs, ys in _curves_for_plot(config, rows):
        out = f"{stem}.{name}.dat"
        with open(out, "w", encoding="utf-8", newline="") as f:
            for x, y in zip(xs, ys):
                f.write(f"{_cell(float(x))} {_cell(float(y))}\n")
        written.append(out)
    return written


def _first(values):
    return values[0]


class Curves(NamedTuple):
    """How a scenario's rows become plot curves."""

    kind: str  # the kind of the rows plotted
    by: tuple  # the columns whose values name one group of curves
    x: str
    ys: tuple  # (curve name, y column, take) per curve; take folds the y values at one x


@dataclass(eq=False)
class Scenario:
    """One scenario, declared once: the CLI, the config check and both writers read it."""

    run: Callable  # config -> rows
    help: str
    keys: tuple  # the config keys run reads past spec, scenario, n_values and time_grid
    columns: tuple  # the CSV columns after config_hash, which leads every CSV
    curves: Curves


# lr and corr plot the sample mean of lhs and the rhs, which every sample at
# one (N, t) shares: the bound is taken at unit norms
_PAIR_CURVES = Curves("point", ("N",), "t", (
    ("lhs_vs_t", "lhs", np.mean),
    ("bound_vs_t", "rhs", _first),
))

SCENARIOS = {
    "converge": Scenario(
        run_convergence,
        "exact one-particle reduced state vs mean-field evolution across N",
        ("initial_phi", "integrator_tol"),
        ("kind", "N", "t", "trace_distance", "mean_field_error_bound", "ratio", "slope",
         "violation"),
        Curves("point", ("t",), "N", (
            ("distance_vs_N", "trace_distance", _first),
            ("bound_vs_N", "mean_field_error_bound", _first),
        )),
    ),
    "lr": Scenario(
        run_lr,
        "Heisenberg commutator growth for disjointly supported observables",
        ("seed", "obs_m", "obs_n", "n_samples"),
        ("N", "m", "n", "sample", "t", "lhs", "rhs", "violation"),
        _PAIR_CURVES,
    ),
    "corr": Scenario(
        run_corr,
        "correlation gap of evolved product states vs its bound",
        ("seed", "obs_m", "obs_n", "n_samples", "initial_phi"),
        ("kind", "N", "m", "n", "sample", "t", "lhs", "rhs", "slope", "violation"),
        _PAIR_CURVES,
    ),
    "bbgky": Scenario(
        run_bbgky,
        "hierarchy RHS against the exact RDM derivative",
        ("initial_phi", "k_values"),
        ("kind", "N", "k", "t", "value"),
        Curves("residual", ("N", "k"), "t", (("residual_vs_t", "value", _first),)),
    ),
    "bounds": Scenario(
        run_bounds,
        "bound constants at both ends of the vtilde bracket, and bound curves",
        ("vtilde_strategy",),
        ("kind", "strategy", "m_max", "sum_l1_v", "sum_l2_v", "vtilde", "lambda_v", "N", "t",
         "mean_field_error_bound", "commutator_growth_bound", "correlation_gap_bound"),
        Curves("curve", ("N",), "t", (
            ("mean_field_error_bound_vs_t", "mean_field_error_bound", _first),
            ("commutator_growth_bound_vs_t", "commutator_growth_bound", _first),
            ("correlation_gap_bound_vs_t", "correlation_gap_bound", _first),
        )),
    ),
}
