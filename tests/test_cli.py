import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bosonlab
from bosonlab import cli as cli_module
from bosonlab import exact_dynamics, experiments
from bosonlab.cli import main
from bosonlab.experiments import _KEYS, SCENARIOS, ConfigError, config_from_dict

from .test_experiments import CONFIG_DIR, _pairs, base_config
from .test_hartree import _workload

README = Path(__file__).resolve().parents[1] / "README.md"
THREE_BODY_SPEC = json.loads((CONFIG_DIR / "bounds.json").read_text())["spec"]  # d = 2, M = 3


def run_module(*args, timeout=None, address_space=None):
    """``python -m bosonlab`` in a subprocess that imports this same package,
    its address space capped at ``address_space`` bytes if given."""
    src = str(Path(bosonlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bosonlab", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=address_space and (
            lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        ),
    )


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "conf.json"
    cfg = base_config(
        n_values=[3, 4], time_grid=[0.0, 0.3], output_path=str(tmp_path / "out.csv")
    )
    path.write_text(json.dumps(cfg))
    return path


def test_happy_path_writes_csv(config_file, tmp_path, capsys):
    assert main(["converge", "--config", str(config_file)]) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.out and "config_hash=" in captured.out
    assert (tmp_path / "out.csv").read_text().startswith("# config_hash=")


def test_out_override(config_file, tmp_path, capsys):
    # --out moves the output and nothing else: the bytes are the config's own run's
    assert main(["converge", "--config", str(config_file)]) == 0
    out = tmp_path / "elsewhere.csv"
    assert main(["converge", "--config", str(config_file), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == (tmp_path / "out.csv").read_text()


def test_plot_data_flag(config_file, tmp_path, capsys):
    assert main(["converge", "--config", str(config_file), "--plot-data"]) == 0
    assert "plot data:" in capsys.readouterr().out
    assert (tmp_path / "out.distance_vs_N.t1.dat").exists()


def test_scenario_mismatch_is_an_error(config_file, capsys):
    assert main(["lr", "--config", str(config_file)]) == 1
    assert "subcommand was invoked" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["converge", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_config_contents(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert main(["converge", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_nan_time_grid_exits_one_promptly(tmp_path):
    path = tmp_path / "nan.json"
    cfg = base_config(time_grid=[0.0, float("nan")], output_path=str(tmp_path / "out.csv"))
    path.write_text(json.dumps(cfg))  # json writes the bare NaN token
    out = run_module("converge", "--config", str(path), timeout=5)
    assert out.returncode == 1
    assert out.stderr == "error: time_grid[1]: must be finite, got nan\n"


def test_overflowing_bounds_are_written_as_inf(tmp_path):
    path = tmp_path / "long.json"
    out_csv = tmp_path / "out.csv"
    cfg = base_config(scenario="bounds", time_grid=[0.0, 1000.0], output_path=str(out_csv))
    path.write_text(json.dumps(cfg))
    out = run_module("bounds", "--config", str(path), timeout=20)
    assert (out.returncode, out.stderr) == (0, "")
    assert ",1000,inf,inf,inf" in out_csv.read_text()


def test_huge_time_refused_before_integrating(tmp_path):
    path = tmp_path / "huge.json"
    cfg = base_config(time_grid=[0.0, 1e9], output_path=str(tmp_path / "out.csv"))
    path.write_text(json.dumps(cfg))
    out = run_module("converge", "--config", str(path), timeout=5)
    assert out.returncode == 1
    assert out.stderr.startswith("error: t = 1e+09 is too long for the mean-field integrator")
    assert "Traceback" not in out.stderr


def test_large_n_product_state_runs_without_traceback(tmp_path):
    # N = 2048 at d = 2: the multinomial sqrt(N!/prod n_i!) overflows a float
    shipped = Path(__file__).resolve().parents[1] / "configs" / "converge.json"
    cfg = json.loads(shipped.read_text())
    cfg.update(n_values=[2048], output_path=str(tmp_path / "out.csv"))
    path = tmp_path / "large.json"
    path.write_text(json.dumps(cfg))
    out = run_module("converge", "--config", str(path), timeout=60)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr


def _shipped(tmp_path, scenario, **changes):
    shipped = Path(__file__).resolve().parents[1] / "configs" / f"{scenario}.json"
    cfg = json.loads(shipped.read_text())
    cfg.update(output_path=str(tmp_path / "out.csv"), **changes)
    path = tmp_path / f"{scenario}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_hopeless_lr_size_refused_quickly(tmp_path):
    path = _shipped(tmp_path, "lr", n_values=[100000])
    out = run_module("lr", "--config", str(path), timeout=30)
    assert out.returncode == 1
    assert out.stderr.startswith("error: n_values: commutator growth summed over N")
    # 201: README's largest workable N for configs/lr.json's four pairs at five times
    assert out.stderr.endswith("; the largest workable n_values[-1] is 201\n")
    assert "Traceback" not in out.stderr
    start = time.perf_counter()
    assert main(["lr", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "out.csv").exists()


def test_lr_runs_past_the_full_space_limit(tmp_path, capsys):
    # d = 2, N = 64: 2^64 in the full space, 32 spin blocks of dimension <= 252
    path = _shipped(tmp_path, "lr", n_values=[64], n_samples=1)
    assert main(["lr", "--config", str(path)]) == 0
    assert "lr: wrote 5 rows" in capsys.readouterr().out


@pytest.mark.parametrize(
    "scenario, changes, field",
    [
        ("lr", {"obs_m": 14}, "obs_m + obs_n"),
        ("corr", {"obs_m": 14}, "obs_m + obs_n"),
        ("bbgky", {"k_values": [40]}, "max(k_values) + 2"),
    ],
)
def test_oversized_dense_orders_refused_before_allocating(
    tmp_path, capsys, scenario, changes, field
):
    # at d = 2 each would ask for dense 2^k x 2^k matrices of GiBs each
    path = _shipped(tmp_path, scenario, **changes)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main([scenario, "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "largest workable order for d=2 is 12" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "scenario, changes, field",
    [
        ("corr", {"obs_m": 6, "obs_n": 6}, "obs_m + obs_n"),
        ("bbgky", {"k_values": [10]}, "max(k_values) + 2"),
    ],
)
def test_dense_rdm_work_priced_at_config_time(tmp_path, capsys, monkeypatch, scenario, changes,
                                              field):
    # order 12 at d = 2 passes the dense byte guard, but each of the 9 RDMs of
    # 3 N and 3 grid times takes seconds in the eigvalsh of a 4096 x 4096 matrix
    def never(config):
        raise AssertionError("the runner must not start")

    monkeypatch.setattr(cli_module.SCENARIOS[scenario], "run", never)
    path = _shipped(tmp_path, scenario, n_values=[12, 13, 14], **changes)
    start = time.perf_counter()
    assert main([scenario, "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: dense RDM work at this order k, len(n_values) * "
                          f"len(time_grid) * d^(3k) units = {9 * 2**36} > {2**38}")
    assert err.endswith("the largest workable order for d=2 is 11\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("scenario", ["corr", "converge"])
def test_summed_terms_refused_at_config_time(tmp_path, capsys, monkeypatch, scenario):
    # t = 3e5 once passed the config check, and evolve_exact's Chebyshev term limit refused
    # it only once the largest N had been enumerated and built; the price is now the run's
    # own term count, so each N's terms are checked with the rest of the config
    def never(config):
        raise AssertionError("the runner must not start")

    monkeypatch.setattr(cli_module.SCENARIOS[scenario], "run", never)
    path = _shipped(tmp_path, scenario, time_grid=[0, 3e5])
    start = time.perf_counter()
    assert main([scenario, "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: n_values: one N's propagation, summed in Chebyshev terms = inf > 1000000; "
        "the largest workable n_values[-1] is 5\n")
    cfg = json.loads(path.read_text())
    config_from_dict({**cfg, "n_values": [4, 5]})
    with pytest.raises(ConfigError, match=r"^n_values: one N's propagation, summed in Chebyshev"):
        config_from_dict({**cfg, "n_values": [4, 6]})
    assert not (tmp_path / "out.csv").exists()


def test_every_admitted_grid_runs_without_a_library_refusal(tmp_path, monkeypatch):
    # configs/corr.json with [0, T] across the term limit: each T the config check admits
    # runs, and the first T past it is refused there.  Each interval takes one matvec in
    # place of its K terms, so that the run is quick; every guard before it runs as it is
    monkeypatch.setattr(exact_dynamics, "_chebyshev_coefficients",
                        lambda x, k: np.array([1.0, 0.0]))
    cfg = json.loads(_shipped(tmp_path, "corr").read_text())
    admitted = []
    for t in np.geomspace(1e4, 1e5, 21).tolist():
        try:
            config = config_from_dict({**cfg, "time_grid": [0.0, t]})
        except ConfigError as exc:
            assert str(exc).startswith("n_values: one N's propagation, summed in Chebyshev terms")
            break
        SCENARIOS["corr"].run(config)
        admitted.append(t)
    else:
        pytest.fail("no T was refused")
    assert len(admitted) >= 5


def test_max_order_other_than_the_largest_order_exits_one(tmp_path, capsys):
    path = _shipped(tmp_path, "converge")
    cfg = json.loads(path.read_text())
    cfg["spec"]["max_order"] = 3  # terms of orders 1 and 2
    path.write_text(json.dumps(cfg))
    assert main(["converge", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: spec.max_order: 3 is not M = 2, the largest order in spec.terms\n")
    del cfg["spec"]["max_order"]
    path.write_text(json.dumps(cfg))
    assert main(["converge", "--config", str(path)]) == 0


@pytest.mark.parametrize(
    "scenario, changes, message",
    [
        ("lr", {"obs_m": 5, "obs_n": 2}, "obs_m + obs_n: order 7 exceeds N = 6"),
        ("corr", {"obs_m": 3, "obs_n": 2}, "obs_m + obs_n: order 5 exceeds N = 4"),
        ("bbgky", {"k_values": [4]}, "max(k_values) + 2: order 6 exceeds N = 5"),
        # configs/bounds.json's three-body spec at N = 2 once passed the config
        # check, and the run ended in a message that named no field and no N
        *[(scenario, {"spec": THREE_BODY_SPEC, "n_values": [2, 4]},
           "spec.terms: order 3 exceeds N = 2 in n_values")
          for scenario in ("converge", "corr", "lr")],
    ],
)
def test_orders_above_the_smallest_n_refused_at_config_time(
    tmp_path, capsys, monkeypatch, scenario, changes, message
):
    def never(config):
        raise AssertionError("the runner must not start")

    monkeypatch.setattr(cli_module.SCENARIOS[scenario], "run", never)
    path = _shipped(tmp_path, scenario, **changes)
    start = time.perf_counter()
    assert main([scenario, "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "scenario, message",
    [
        ("corr", "n_samples: 1000000000 observable pairs' 16 * n_samples * (d^(2 obs_m) + "
         "d^(2 obs_n)) bytes = 128000000000 > 4294967296"),
        ("lr", "n_samples: 1000000000 observable pairs' 16 * n_samples * (d^(2 obs_m) + "
         "d^(2 obs_n)) bytes = 128000000000 > 4294967296"),
    ],
)
def test_huge_n_samples_refused_before_drawing(tmp_path, capsys, scenario, message):
    # 10^9 pairs of 2 x 2 observables: drawing them alone would run for hours
    path = _shipped(tmp_path, scenario, n_samples=10**9)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main([scenario, "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert time.perf_counter() - start < 5.0
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.endswith("the largest workable n_samples for d=2, obs_m=1 and obs_n=1 is 33554432\n")
    assert not (tmp_path / "out.csv").exists()


def test_lr_blocks_priced_at_config_time(tmp_path, capsys, monkeypatch):
    # every N is priced for all samples before the runner starts
    def never(config):
        raise AssertionError("the runner must not start")

    monkeypatch.setattr(cli_module.SCENARIOS["lr"], "run", never)
    path = _shipped(tmp_path, "lr", n_values=[8, 100000])
    assert main(["lr", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: n_values: commutator growth summed over N")


_MATVECS = "propagation summed over N, grid cells x Chebyshev terms = "


@pytest.mark.parametrize(
    "scenario, n_values, workable, what",
    [
        ("converge", list(range(2, 3000)), 1935, _MATVECS),
        ("lr", list(range(8, 200)), 95, "commutator growth summed over N, its work = "),
        ("converge", [4, 8, 16, 10**5], 50974, _MATVECS),  # the named N replaces the last one
        # prices past the largest float read as inf; the N named passes every limit, and the
        # check named is the one that binds there: one N's Chebyshev terms, also inf, is not
        ("converge", [10**400], 50974, _MATVECS + "inf > "),
        ("corr", [10**400], 50974, _MATVECS + "inf > "),
        ("bbgky", [10**400], 55572, _MATVECS + "inf > "),
    ],
)
def test_runs_priced_whole_at_config_time(tmp_path, capsys, monkeypatch, scenario, n_values,
                                          workable, what):
    # every N of the first two alone passes every guard; summed over n_values
    # the converge run would take minutes, the lr run (39x MAX_KERNEL_WORK) hours
    def never(config):
        raise AssertionError("the runner must not start")

    monkeypatch.setattr(cli_module.SCENARIOS[scenario], "run", never)
    path = _shipped(tmp_path, scenario, n_values=n_values)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main([scenario, "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith(f"error: n_values: {what}")
    max_n = int(re.search(r"the largest workable n_values\[-1\] is (\d+)\n$", err).group(1))
    assert max_n == workable
    cfg = json.loads(path.read_text())
    config_from_dict({**cfg, "n_values": [x for x in n_values if x < max_n] + [max_n]})
    with pytest.raises(ConfigError, match=r"^n_values: " + re.escape(what.split(" = ")[0])):
        config_from_dict({**cfg, "n_values": [x for x in n_values if x <= max_n] + [max_n + 1]})
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 64.0 GiB for an array"),
         "error: Unable to allocate 64.0 GiB for an array\n"),
        (MemoryError(), "error: MemoryError\n"),  # Python's own carries no message
    ],
    ids=["numpy-message", "bare"],
)
def test_memory_error_ends_in_an_error_line(config_file, capsys, monkeypatch, exc, line):
    def exhausted(config):
        raise exc

    monkeypatch.setattr(cli_module.SCENARIOS["converge"], "run", exhausted)
    assert main(["converge", "--config", str(config_file)]) == 1
    err = capsys.readouterr().err
    assert err == line
    assert "Traceback" not in err


def test_one_mode_runs_at_a_billion_particles(tmp_path):
    # d = 1: one state at every N, so nothing may grow with N; a pool or table of
    # N entries would need 8 GB and more, and the cap turns it into a MemoryError
    path = tmp_path / "d1.json"
    spec = {"d": 1, "max_order": 2, "terms": {"1": [[[0.5, 0.0]]], "2": [[[1.0, 0.0]]]}}
    path.write_text(json.dumps(base_config(
        spec=spec, n_values=[4, 10**9], time_grid=[0.0, 1e-9], initial_phi=[[1.0, 0.0]],
        output_path=str(tmp_path / "out.csv"))))
    out = run_module("converge", "--config", str(path), timeout=60, address_space=3 * 2**30)
    assert (out.returncode, out.stderr) == (0, "")
    assert "converge: wrote 5 rows" in out.stdout


def _one_body(scenario, d, **changes):
    """A one-body spec on d modes, from the first mode: a size-only price decides."""
    spec = {"d": d, "max_order": 1, "terms": {"1": _pairs(np.diag(np.linspace(-0.5, 0.5, d)))}}
    phi = [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)
    return base_config(scenario=scenario, spec=spec, initial_phi=phi, time_grid=[0.0], **changes)


@pytest.mark.parametrize(
    "document, what",
    [
        (lambda: _one_body("converge", 2, n_values=[4, 2_000_000]), "C(N+d-1, d-1) states"),
        (lambda: {**_workload("converge_sector", 7), "n_values": [300, 600, 1000],
                  "time_grid": [0.0, 0.01]},
         "the operator grid's 128 * D * (1 + moves) bytes"),
        (lambda: _one_body("corr", 3, n_values=[4, 1200], obs_m=1, obs_n=2),
         "the order-3 ladder walk's"),
        (lambda: _one_body("bbgky", 3, n_values=[4, 1200], k_values=[3]),
         "the order-3 ladder walk's"),
        # 20000 times at N = 15000: the states of 15001 amplitudes alone are 4.47 GiB; one-body,
        # as with the 5 cells a row of converge.json's spec the matvec work refuses first
        (lambda: {**_one_body("converge", 2, n_values=[4, 15000]),
                  "time_grid": np.linspace(0.0, 0.1, 20000).tolist()},
         "the propagated states' 16 * (times + 6) * D bytes"),
        # 820 states, but 3^40 passes int64's room for the occupation keys
        (lambda: _one_body("converge", 40, n_values=[2]), "the occupation keys' (N+1)^d"),
    ],
    ids=["basis", "operator", "corr-walk", "bbgky-walk", "states", "keys"],
)
def test_size_limits_priced_at_config_time(tmp_path, capsys, monkeypatch, document, what):
    # each refused the last N only once the earlier ones had run: 4.4 s for "operator"
    def never(config):
        raise AssertionError("the runner must not start")

    cfg = {**document(), "output_path": str(tmp_path / "out.csv")}
    monkeypatch.setattr(cli_module.SCENARIOS[cfg["scenario"]], "run", never)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    assert main([cfg["scenario"], "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: n_values: {what}")
    max_n = int(re.search(r"the largest workable n_values\[-1\] is (\d+)\n$", err).group(1))
    if what.startswith("the operator grid"):
        assert err.endswith(" bytes = 1219650432 > 1073741824; the largest workable "
                            "n_values[-1] is 938\n")
    config_from_dict({**cfg, "n_values": cfg["n_values"][:-1] + [max_n]})
    with pytest.raises(ConfigError, match=re.escape(f"n_values: {what}")):
        config_from_dict({**cfg, "n_values": cfg["n_values"][:-1] + [max_n + 1]})
    assert not (tmp_path / "out.csv").exists()


def test_large_one_body_spec_refused_without_dense_moves():
    # d = 300 and a dense one-body term: 89701 cells a row.  Its 9e4 kept pairs are keyed by
    # the mode each raises and lowers; as d-vectors of counts their moves took 216 MB
    d = 300
    terms, phi = np.zeros((d, d, 2)), np.zeros((d, 2))
    terms[..., 0], phi[0, 0] = 1.0 / d, 1.0
    cfg = base_config(spec={"d": d, "terms": {"1": terms}}, initial_phi=phi, n_values=[2],
                      time_grid=[0.0, 0.1])
    start = time.perf_counter()
    tracemalloc.start()
    try:
        # at N = 1 its 300 x 89701 cells already pass the operator bytes: that check binds
        with pytest.raises(ConfigError, match=r"^n_values: the operator grid's 128 \* D \*"):
            config_from_dict(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**25  # the spec's 1.4 MB of terms, and a few numbers a kept pair


def test_removed_bbgky_dt_key_refused(tmp_path, capsys):
    # the finite-difference step is gone; an old config carrying it is refused
    path = _shipped(tmp_path, "bbgky", bbgky_dt=0.001)
    start = time.perf_counter()
    assert main(["bbgky", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: unknown config key(s): bbgky_dt\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"vtilde_restarts": 6}, "unknown config key(s): vtilde_restarts"),
        ({"vtilde_strategy": "search"}, "vtilde_strategy: 'search' is not one of canonical, ceiling"),
        ({"telescope_orders": [1, 2]}, "unknown config key(s): telescope_orders"),
    ],
)
def test_removed_vtilde_search_refused(tmp_path, capsys, changes, message):
    # the randomized vtilde search and bbgky's telescope rows are gone; an old
    # config asking for either is refused
    path = _shipped(tmp_path, "bounds", **changes)
    start = time.perf_counter()
    assert main(["bounds", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_violation_rows_exit_two(config_file, capsys, monkeypatch):
    def fake_runner(config):
        return [{"config_hash": config.config_hash, "kind": "point", "violation": 1}]

    monkeypatch.setattr(cli_module.SCENARIOS["converge"], "run", fake_runner)
    assert main(["converge", "--config", str(config_file)]) == 2
    assert "BOUND VIOLATION" in capsys.readouterr().err


def test_module_help_runs():
    out = run_module("--help")
    assert out.returncode == 0
    for name in ("converge", "lr", "corr", "bbgky", "bounds"):
        assert name in out.stdout


def test_scenario_lists_match_the_table():
    # the README's scenario table, the CLI's subcommands and the config's
    # scenario choices all list the scenarios of experiments.SCENARIOS
    table = list(SCENARIOS)
    readme = re.findall(r"^\| `(\w+)`", README.read_text(), flags=re.MULTILINE)
    assert readme == table
    out = run_module("--help")
    assert re.findall(r"^    (\S+)", out.stdout, flags=re.MULTILINE) == table
    with pytest.raises(ConfigError) as info:
        config_from_dict(base_config(scenario="warp"))
    assert str(info.value) == f"scenario: 'warp' is not one of {', '.join(table)}"


def test_readme_config_block_has_the_config_keys():
    block = re.search(r"```jsonc\n(.*?)```", README.read_text(), flags=re.DOTALL).group(1)
    documented = json.loads(re.sub(r"//.*", "", block))
    assert sorted(documented) == sorted(f.name for f in _KEYS)


def test_readme_quick_tour_stays_within_its_bound(capsys):
    tour = README.read_text().split("## Quick tour\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, flags=re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = re.fullmatch(r"N=64: \|gamma_exact - gamma_mf\| = (\S+) <= (\S+)\n",
                           capsys.readouterr().out)
    assert printed is not None
    assert 0 < float(printed[1]) <= float(printed[2])
