import json
import math
import re
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from bosonlab import (
    __version__,
    bbgky_rhs,
    bound_constants,
    build_hamiltonian,
    commutator_growth,
    correlation_gap,
    enumerate_basis,
    experiments,
    hartree_evolve,
    mean_field_error_bound,
    rdm,
    symmetric_space,
    vtilde,
)
from bosonlab.experiments import (
    SCENARIOS,
    VERSION,
    ConfigError,
    config_from_dict,
    count_violations,
    load_config,
    run_bbgky,
    run_bounds,
    run_convergence,
    run_corr,
    run_lr,
    write_plot_data,
    write_rows,
)
from bosonlab.symmetric_space import rdm_derivative

from .conftest import SX, SZ

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _pairs(matrix):
    mat = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


def base_config(**extra):
    cfg = {
        "scenario": "converge",
        "spec": {
            "d": 2,
            "max_order": 2,
            "terms": {
                "1": _pairs([[0.3, 0.2], [0.2, -0.3]]),
                "2": _pairs(0.25 * np.kron(SX, SX)),
            },
        },
        "n_values": [4, 8],
        "time_grid": [0.0, 0.4],
        "initial_phi": [[0.6, 0.0], [0.8, 0.0]],
    }
    cfg.update(extra)
    return cfg


def _count_rdm_orders(monkeypatch):
    """Route the runners' rdm calls through a wrapper; returns the list of
    requested orders, one entry per call."""
    orders = []

    def counting(state, k):
        orders.append(k)
        return rdm(state, k)

    monkeypatch.setattr(experiments, "rdm", counting)
    return orders


def _shipped(scenario, **changes):
    """The shipped config of a scenario, as a mapping, with changes."""
    cfg = json.loads((CONFIG_DIR / f"{scenario}.json").read_text())
    cfg.update(changes)
    return cfg


def _with_nan_entry(pairs):
    pairs[0][0] = [math.nan, 0.0]
    return pairs


class TestConfigParsing:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("time_grid", [0.0, math.nan]),
            ("time_grid", [0.0, math.inf]),
            ("integrator_tol", [1]),
            ("integrator_tol", math.inf),
            ("integrator_tol", True),
            ("spec.terms.2", _with_nan_entry(_pairs(0.25 * np.kron(SX, SX)))),
            ("initial_phi", [[math.nan, 0.0], [0.8, 0.0]]),
        ],
        ids=[
            "time_grid-nan",
            "time_grid-inf",
            "integrator_tol-list",
            "integrator_tol-inf",
            "integrator_tol-bool",
            "potential-nan",
            "initial_phi-nan",
        ],
    )
    def test_bad_number_rejected_naming_the_field(self, field, value):
        cfg = base_config(scenario="bbgky")
        if field.startswith("spec.terms."):
            cfg["spec"]["terms"][field.rsplit(".", 1)[1]] = value
        else:
            cfg[field] = value
        with pytest.raises(ConfigError, match="^" + re.escape(field)):
            config_from_dict(cfg)

    def test_minimal_config_gets_defaults(self):
        config = config_from_dict(base_config())
        assert config.integrator_tol == 1e-9
        assert config.seed == 0
        assert config.vtilde_strategy == "ceiling"
        assert config.output_path == "results.csv"
        assert (config.obs_m, config.obs_n, config.n_samples) == (1, 1, 16)
        assert config.k_values == (1,)
        assert len(config.config_hash) == 16
        int(config.config_hash, 16)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_step_budget_priced_for_converge_only(self, monkeypatch, scenario):
        # only converge integrates the mean field, so only its config check
        # prices the integrator's step budget
        priced = []
        monkeypatch.setattr(experiments, "_guard_steps", lambda spec, t_end: priced.append(t_end))
        config = config_from_dict(_shipped(scenario))
        assert priced == ([config.time_grid[-1]] if scenario == "converge" else [])

    def test_one_body_term_optional(self):
        cfg = base_config()
        del cfg["spec"]["terms"]["1"]
        config = config_from_dict(cfg)
        assert config.spec.present_orders == (2,)

    def test_max_order_must_be_the_largest_order_present(self):
        cfg = base_config()
        cfg["spec"]["max_order"] = 3  # terms of orders 1 and 2
        with pytest.raises(ConfigError, match=r"^spec\.max_order: 3 is not M = 2, "
                                              r"the largest order in spec\.terms$"):
            config_from_dict(cfg)

    def test_max_order_is_optional_and_hashed_as_derived(self):
        cfg = base_config()
        del cfg["spec"]["max_order"]
        config = config_from_dict(cfg)
        assert config.spec.max_order == 2
        assert config.config_hash == config_from_dict(base_config()).config_hash

    @pytest.mark.parametrize("scenario, digest", [
        ("bbgky", "9ea37b336779d2c7"),
        ("bounds", "596148a0badba86b"),
        ("converge", "b35247d198bce19b"),
        ("corr", "cfed0b7a64601617"),
        ("lr", "72e7cc6478ebcc9b"),
    ])
    def test_shipped_config_hashes_are_pinned(self, scenario, digest):
        # a change to canonicalization re-labels every CSV a shipped config wrote
        assert config_from_dict(_shipped(scenario)).config_hash == digest

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict(base_config(not_a_key=1))

    def test_asymmetric_potential_rejected(self):
        cfg = base_config()
        cfg["spec"]["terms"]["2"] = _pairs(np.kron(SX, SZ))
        with pytest.raises(ConfigError, match="not slot-permutation-symmetric"):
            config_from_dict(cfg)

    def test_unnormalized_phi_rejected(self):
        with pytest.raises(ConfigError, match="norm deviates"):
            config_from_dict(base_config(initial_phi=[[0.6, 0.0], [0.9, 0.0]]))

    def test_phi_length_must_match_d(self):
        phi = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ConfigError, match="does not match spec.d"):
            config_from_dict(base_config(initial_phi=phi))

    def test_time_grid_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            config_from_dict(base_config(time_grid=[0.0, 0.4, 0.4]))

    def test_scenario_must_be_known(self):
        with pytest.raises(ConfigError, match="not one of"):
            config_from_dict(base_config(scenario="warp"))

    def test_bad_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(base_config(seed=-1))
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(base_config(seed=2**64))

    def test_terms_key_must_be_integer(self):
        cfg = base_config()
        cfg["spec"]["terms"]["pair"] = cfg["spec"]["terms"].pop("2")
        with pytest.raises(ConfigError, match="integer order"):
            config_from_dict(cfg)

    def test_duplicate_term_order_rejected(self):
        cfg = base_config()
        cfg["spec"]["terms"]["02"] = _pairs(np.zeros((4, 4)))
        with pytest.raises(ConfigError, match="given twice"):
            config_from_dict(cfg)

    def test_overrides_take_precedence(self):
        config = config_from_dict(base_config(), overrides={"seed": 99})
        assert config.seed == 99

    def test_output_path_not_hashed(self):
        a = config_from_dict(base_config(output_path="a.csv"))
        b = config_from_dict(base_config(output_path="b.csv"))
        assert a.config_hash == b.config_hash

    def test_seed_changes_hash(self):
        # corr draws its observables from the seed
        a = config_from_dict(base_config(scenario="corr", seed=1))
        b = config_from_dict(base_config(scenario="corr", seed=2))
        assert a.config_hash != b.config_hash

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_only_the_keys_read_are_hashed(self, scenario):
        # a key the runner does not read changes no output, so not the hash either
        changes = {"initial_phi": [[0.0, 0.0], [1.0, 0.0]], "integrator_tol": 1e-4, "seed": 7,
                   "vtilde_strategy": "canonical", "obs_m": 2, "obs_n": 2, "n_samples": 2,
                   "k_values": [2]}
        base = config_from_dict(base_config(scenario=scenario))
        for key, value in changes.items():
            changed = config_from_dict(base_config(scenario=scenario, **{key: value}))
            read = key in SCENARIOS[scenario].keys
            assert (changed.config_hash != base.config_hash) == read, key

    def test_load_config_rejects_bad_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config("{not json")

    def test_load_config_round_trip(self):
        config = load_config(json.dumps(base_config()))
        assert config.scenario == "converge"
        assert config.spec.d == 2


class TestConvergenceRunner:
    def test_rows_and_slope(self):
        config = config_from_dict(base_config())
        rows = run_convergence(config)
        points = [r for r in rows if r["kind"] == "point"]
        slopes = [r for r in rows if r["kind"] == "slope"]
        assert len(points) == len(config.n_values) * len(config.time_grid)
        assert len(slopes) == 1  # one per positive grid time
        for r in points:
            if r["t"] == 0.0:
                assert r["trace_distance"] < 1e-12
                assert r["mean_field_error_bound"] == 0.0
            assert r["violation"] == 0
            assert r["ratio"] == pytest.approx(r["trace_distance"] * r["N"])
        assert math.isfinite(slopes[0]["slope"])

    def test_free_evolution_matches_mean_field(self):
        cfg = base_config(time_grid=[0.0, 0.5, 1.0], n_values=[3, 5])
        cfg["spec"] = {"d": 2, "max_order": 1, "terms": {"1": _pairs([[0.4, 0.1], [0.1, -0.2]])}}
        rows = run_convergence(config_from_dict(cfg))
        for r in rows:
            if r["kind"] == "point":
                assert r["trace_distance"] < 1e-8


class TestLrRunner:
    def _config(self, **extra):
        return config_from_dict(
            base_config(scenario="lr", n_values=[4], n_samples=2, **extra)
        )

    def test_no_violations_and_zero_start(self):
        rows = run_lr(self._config())
        assert len(rows) == 2 * 2  # samples x times
        assert count_violations(rows) == 0
        for r in rows:
            if r["t"] == 0.0:
                assert r["lhs"] < 1e-12
            assert r["rhs"] >= 0.0

    def test_deterministic(self):
        config = self._config()
        assert run_lr(config) == run_lr(config)

    def test_support_must_fit(self):
        with pytest.raises(ConfigError, match=r"^obs_m \+ obs_n: order 5 exceeds N = 4"):
            self._config(obs_m=3, obs_n=2)

    def test_one_commutator_growth_call_per_n(self, monkeypatch):
        stack_sizes, eigh_dims = [], []

        def counting(spec, n_particles, m, n, a, b, times):
            stack_sizes.append((len(a), len(b)))
            return commutator_growth(spec, n_particles, m, n, a, b, times)

        def counting_eigh(h):
            eigh_dims.append(h.shape[0])
            return eigh(h)

        eigh = np.linalg.eigh
        monkeypatch.setattr(experiments, "commutator_growth", counting)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        config = config_from_dict(
            base_config(scenario="lr", n_values=[4, 5], time_grid=[0.0, 0.5], n_samples=3)
        )
        rows = run_lr(config)
        assert stack_sizes == [(3, 3)] * 2  # every sample in one call per N
        # each block of each N diagonalized once, largest first
        assert eigh_dims == [12, 4, 16, 8]
        assert [(r["N"], r["sample"], r["t"]) for r in rows] == [
            (n, s, t) for n in (4, 5) for s in range(3) for t in (0.0, 0.5)
        ]


class TestCorrRunner:
    def test_rows_violations_and_slope(self):
        config = config_from_dict(
            base_config(scenario="corr", n_values=[4, 8], time_grid=[0.0, 0.5], n_samples=2)
        )
        rows = run_corr(config)
        points = [r for r in rows if r["kind"] == "point"]
        slopes = [r for r in rows if r["kind"] == "slope"]
        assert len(points) == 2 * 2 * 2 and len(slopes) == 1
        assert count_violations(rows) == 0
        for r in points:
            if r["t"] == 0.0:  # product state carries no correlations
                assert r["lhs"] < 1e-12

    def test_one_rdm_per_state(self, monkeypatch):
        orders = _count_rdm_orders(monkeypatch)
        config = config_from_dict(
            base_config(scenario="corr", n_values=[4, 8], time_grid=[0.0, 0.5], n_samples=3)
        )
        run_corr(config)
        assert orders == [2] * 4  # one order-(m+n) RDM per (N, t)

    def test_one_correlation_gap_call_per_state(self, monkeypatch):
        stack_sizes = []

        def counting(gamma, m, n, a, b):
            stack_sizes.append(len(a))
            return correlation_gap(gamma, m, n, a, b)

        monkeypatch.setattr(experiments, "correlation_gap", counting)
        config = config_from_dict(
            base_config(scenario="corr", n_values=[4, 8], time_grid=[0.0, 0.5], n_samples=3)
        )
        rows = run_corr(config)
        assert stack_sizes == [3] * 4  # every sample in one call per (N, t)
        assert len([r for r in rows if r["kind"] == "point"]) == 3 * 4


class TestBbgkyRunner:
    def test_residual_order(self):
        config = config_from_dict(
            base_config(
                scenario="bbgky",
                n_values=[4, 5],
                time_grid=[0.0, 0.4, 0.8],
                k_values=[1, 2],
            )
        )
        rows = run_bbgky(config)
        assert {r["kind"] for r in rows} == {"residual"}  # no order rows
        # one residual row per (N, k, t), t = 0 included, by k then t within each N
        keys = [(r["N"], r["k"], r["t"]) for r in rows]
        assert keys == [(n, k, t) for n in (4, 5) for k in (1, 2) for t in (0.0, 0.4, 0.8)]
        for r in rows:
            assert r["value"] <= 1e-12  # the hierarchy RHS is the exact derivative

    def test_no_mean_field_integration(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("bbgky reads no mean-field state")

        monkeypatch.setattr(experiments, "hartree_evolve", never)
        rows = run_bbgky(config_from_dict(_shipped("bbgky")))
        keys = [(r["kind"], r["k"]) for r in rows]
        assert keys == [("residual", k) for k in (1, 2) for _ in range(3)]
        assert all(r["value"] <= 1e-12 for r in rows)

    def test_residual_sees_the_hierarchy_of_a_wrong_n(self, monkeypatch):
        # the residual is a check that can fail: the hierarchy for N + 1
        # particles misses the exact derivative of the N-particle state
        monkeypatch.setattr(
            experiments, "bbgky_rhs", lambda spec, n, k, gamma: bbgky_rhs(spec, n + 1, k, gamma)
        )
        rows = run_bbgky(config_from_dict(_shipped("bbgky")))
        assert len(rows) == 6
        assert min(r["value"] for r in rows) > 1e-6

    def test_one_rdm_per_needed_time(self, monkeypatch):
        orders = _count_rdm_orders(monkeypatch)
        derivative_orders = []

        def counting(state, hamiltonian, k):
            derivative_orders.append(k)
            return rdm_derivative(state, hamiltonian, k)

        monkeypatch.setattr(experiments, "rdm_derivative", counting)
        config = config_from_dict(
            base_config(
                scenario="bbgky",
                n_values=[4, 5],
                time_grid=[0.0, 0.4],
                k_values=[1, 2],
            )
        )
        run_bbgky(config)
        # per N and grid time: one rdm at order 3 = max(k_values) + M - 1, which
        # bbgky_rhs takes for every k, then one derivative walk at max(k_values)
        assert orders == [3, 3] * 2
        assert derivative_orders == [2, 2] * 2

    def test_rdm_order_above_n_refused(self):
        with pytest.raises(ConfigError, match=r"^max\(k_values\) \+ 2: order 6 exceeds N = 5"):
            config_from_dict(_shipped("bbgky", n_values=[5], k_values=[4]))

    @staticmethod
    def _peak(config):
        """tracemalloc peak of run_bbgky in bytes, and the highest RDM order K
        it forms."""
        max_present = max(config.spec.present_orders)
        top = max(config.k_values) + max_present - 1
        tracemalloc.start()
        try:
            run_bbgky(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, top

    def test_peak_does_not_grow_with_grid_times(self):
        ratios = []
        for n_times in (6, 11):
            grid = [0.1 * i for i in range(n_times)]
            config = config_from_dict(
                _shipped("bbgky", n_values=[10], k_values=[5], time_grid=grid)
            )
            peak, top = self._peak(config)
            # within what the config guard charges for the order-K matrices
            assert peak <= experiments._dense_peak_bytes(2**top)
            ratios.append(peak / (16 * 4**top))
        assert abs(ratios[1] - ratios[0]) <= 0.5

    @pytest.mark.parametrize("max_order, k", [(1, 9), (2, 8)])
    def test_peak_within_guard_for_lower_body_orders(self, max_order, k):
        cfg = _shipped("bbgky", n_values=[10], k_values=[k])
        terms = {m: v for m, v in cfg["spec"]["terms"].items() if int(m) <= max_order}
        cfg["spec"] = {"d": 2, "max_order": max_order, "terms": terms}
        peak, top = self._peak(config_from_dict(cfg))
        assert top == 9
        assert peak <= experiments._dense_peak_bytes(2**top)


class TestBoundsRunner:
    def test_constants_and_curves(self):
        config = config_from_dict(
            base_config(scenario="bounds", n_values=[10], time_grid=[0.0, 1.0])
        )
        rows = run_bounds(config)
        constants = {r["strategy"]: r for r in rows if r["kind"] == "constants"}
        curves = [r for r in rows if r["kind"] == "curve"]
        assert list(constants) == ["canonical", "ceiling"]
        for strategy, row in constants.items():
            consts = bound_constants(config.spec, vtilde(config.spec, strategy))
            assert row["sum_l1_v"] == pytest.approx(consts.sum_l1_v)
            assert row["vtilde"] == pytest.approx(consts.vtilde)
        assert constants["ceiling"]["vtilde"] >= constants["canonical"]["vtilde"]
        # the curves take the configured strategy, ceiling by default
        expected = bound_constants(config.spec, vtilde(config.spec, "ceiling"))
        by_t = {r["t"]: r for r in curves}
        assert by_t[0.0]["mean_field_error_bound"] == 0.0
        assert by_t[1.0]["mean_field_error_bound"] == pytest.approx(
            mean_field_error_bound(expected, 10, 1.0)
        )


class TestOutputFiles:
    def _run(self):
        config = config_from_dict(base_config(time_grid=[0.0, 0.4], n_values=[4]))
        return config, run_convergence(config)

    def test_csv_layout(self, tmp_path):
        config, rows = self._run()
        out = tmp_path / "res.csv"
        write_rows(out, config, rows)
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0] == f"# config_hash={config.config_hash} version=0.1.0"
        assert lines[1].startswith("config_hash,kind,N,t,trace_distance")
        assert "\r" not in text and text.endswith("\n")

    def test_bbgky_csv_layout(self, tmp_path):
        # residual rows only, with no column that only another row kind fills
        config = config_from_dict(_shipped("bbgky"))
        out = tmp_path / "res.csv"
        write_rows(out, config, run_bbgky(config))
        lines = out.read_text().splitlines()
        assert lines[1] == "config_hash,kind,N,k,t,value"
        assert [line.split(",")[1] for line in lines[2:]] == ["residual"] * 6

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_runner_reads_only_hashed_keys(self, tmp_path, scenario):
        # every key config_hash omits is poisoned: a runner that read one would fail
        # or write other bytes, while its output is unchanged
        config = config_from_dict(base_config(scenario=scenario, n_values=[4, 6]))
        hashed = ("spec", "scenario", "n_values", "time_grid") + SCENARIOS[scenario].keys
        poison = {f.name: object() for f in fields(config)
                  if f.name not in hashed + ("config_hash",)}
        assert poison  # every scenario leaves some key unread
        written = []
        for run_config in (config, replace(config, **poison)):
            out = tmp_path / f"{len(written)}.csv"
            rows = SCENARIOS[scenario].run(run_config)
            write_rows(out, run_config, rows)
            plots = write_plot_data(out, run_config, rows)
            written.append([Path(p).read_bytes() for p in [out, *plots]])
        assert written[0] == written[1]

    def test_header_version_is_package_version(self):
        # one source for the version, whether installed or run from the tree
        assert VERSION == __version__

    def test_float_cells_round_trip(self, tmp_path):
        config, rows = self._run()
        out = tmp_path / "res.csv"
        write_rows(out, config, rows)
        data = out.read_text().split("\n")[2].split(",")
        # column 4 is trace_distance of the first point row
        assert float(data[4]) == rows[0]["trace_distance"]

    def test_missing_columns_are_blank(self, tmp_path):
        config, rows = self._run()
        out = tmp_path / "res.csv"
        write_rows(out, config, rows)
        slope_line = out.read_text().rstrip("\n").split("\n")[-1]
        cells = slope_line.split(",")
        assert cells[1] == "slope" and cells[2] == "" and cells[4] == ""

    def test_rerun_is_byte_identical(self, tmp_path):
        config, _ = self._run()
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            write_rows(out, config, run_convergence(config))
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_count_violations(self):
        rows = [{"violation": 0}, {"violation": 1}, {"kind": "slope"}, {"violation": 1}]
        assert count_violations(rows) == 2

    def test_plot_data_inventory(self, tmp_path):
        config, rows = self._run()
        out = tmp_path / "res.csv"
        written = write_plot_data(out, config, rows)
        names = {p.replace(str(tmp_path) + "/", "") for p in written}
        assert names == {
            "res.distance_vs_N.t0.dat",
            "res.bound_vs_N.t0.dat",
            "res.distance_vs_N.t1.dat",
            "res.bound_vs_N.t1.dat",
        }
        first = (tmp_path / "res.distance_vs_N.t1.dat").read_text().splitlines()
        assert len(first) == 1  # single N in this config
        x, y = first[0].split()
        assert float(x) == 4.0 and float(y) >= 0.0

    @pytest.mark.parametrize(
        "scenario, runner, files",
        [
            (
                "converge",
                run_convergence,
                [f"{curve}_vs_N.t{i}" for i in range(3) for curve in ("distance", "bound")],
            ),
            ("lr", run_lr, ["lhs_vs_t.N6", "bound_vs_t.N6"]),
            (
                "corr",
                run_corr,
                [f"{curve}_vs_t.N{n}" for n in (4, 8, 16) for curve in ("lhs", "bound")],
            ),
            ("bbgky", run_bbgky, ["residual_vs_t.N5.k1", "residual_vs_t.N5.k2"]),
            (
                "bounds",
                run_bounds,
                [
                    f"{bound}_bound_vs_t.N{n}"
                    for n in (10, 100)
                    for bound in ("mean_field_error", "commutator_growth", "correlation_gap")
                ],
            ),
        ],
    )
    def test_plot_curves_of_every_shipped_config(self, tmp_path, scenario, runner, files):
        config = config_from_dict(_shipped(scenario, output_path=str(tmp_path / "res.csv")))
        rows = runner(config)
        written = write_plot_data(config.output_path, config, rows)
        assert [Path(p).name for p in written] == [f"res.{name}.dat" for name in files]
        curves = {}
        for path, name in zip(written, files):
            lines = Path(path).read_text().splitlines()
            xs, curves[name] = zip(*(map(float, line.split()) for line in lines))
            # converge plots against N, every other scenario against t
            grid = config.n_values if scenario == "converge" else config.time_grid
            assert list(xs) == [float(x) for x in grid]
        if scenario in ("lr", "corr"):
            points = [r for r in rows if r["kind"] == "point"]
            for n in config.n_values:
                at = [[r for r in points if r["N"] == n and r["t"] == t] for t in config.time_grid]
                # the sample mean of lhs, and the rhs all samples share
                mean = tuple(float(np.mean([r["lhs"] for r in a])) for a in at)
                first = tuple(next(r["rhs"] for r in a if r["sample"] == 0) for a in at)
                assert curves[f"lhs_vs_t.N{n}"] == mean
                assert curves[f"bound_vs_t.N{n}"] == first

    @pytest.mark.parametrize("scenario, runner", [("lr", run_lr), ("corr", run_corr)])
    def test_samples_share_one_rhs_per_n_and_t(self, tmp_path, scenario, runner):
        # every drawn observable has unit norm, so the bound is one number per (N, t)
        config = config_from_dict(_shipped(scenario))
        out = tmp_path / "res.csv"
        write_rows(out, config, runner(config))
        lines = out.read_text().splitlines()[1:]
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        rhs_at = {}
        for row in rows:
            if row.get("kind", "point") == "point":
                rhs_at.setdefault((row["N"], row["t"]), set()).add(row["rhs"])
        assert len(rhs_at) == len(config.n_values) * len(config.time_grid)
        assert [at for at, values in rhs_at.items() if len(values) > 1] == []


@pytest.mark.parametrize("scenario", ["converge", "corr", "bbgky"])
def test_each_n_is_freed_before_the_next_is_built(monkeypatch, scenario):
    # a weakref to every basis and H the run builds: none of an earlier N may be
    # alive when the next N's basis is enumerated
    built = []

    def enumerate_checked(d, n_particles):
        assert [ref for ref in built if ref() is not None] == []
        basis = enumerate_basis(d, n_particles)
        built.append(weakref.ref(basis))
        return basis

    def build_checked(*args):
        hamiltonian = build_hamiltonian(*args)
        built.append(weakref.ref(hamiltonian))
        return hamiltonian

    monkeypatch.setattr(symmetric_space, "enumerate_basis", enumerate_checked)
    monkeypatch.setattr(experiments, "build_hamiltonian", build_checked)
    config = config_from_dict(_shipped(scenario, n_values=[5, 6, 7]))
    SCENARIOS[scenario].run(config)
    assert len(built) == 2 * len(config.n_values)


@pytest.mark.parametrize("scenario", ["converge", "corr", "bbgky"])
def test_largest_n_runs_first_and_rows_ascend(monkeypatch, scenario):
    # the costliest N first, so that a refusal comes before any other work; the
    # mean-field flow only after it has propagated
    events = []

    def build_logged(spec, n_particles, basis):
        events.append(n_particles)
        return build_hamiltonian(spec, n_particles, basis)

    def hartree_logged(*args):
        events.append("hartree")
        return hartree_evolve(*args)

    monkeypatch.setattr(experiments, "build_hamiltonian", build_logged)
    monkeypatch.setattr(experiments, "hartree_evolve", hartree_logged)
    config = config_from_dict(_shipped(scenario, n_values=[5, 6, 7]))
    rows = SCENARIOS[scenario].run(config)
    assert events == ([7, "hartree", 6, 5] if scenario == "converge" else [7, 6, 5])
    ns = [row["N"] for row in rows if "N" in row]
    assert ns == sorted(ns) and set(ns) == {5, 6, 7}
