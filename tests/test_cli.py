import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import bosonlab
from bosonlab import cli as cli_module
from bosonlab.cli import main
from bosonlab.experiments import _KEYS, SCENARIOS, ConfigError, config_from_dict

from .test_experiments import base_config

README = Path(__file__).resolve().parents[1] / "README.md"


def run_module(*args, timeout=None):
    """``python -m bosonlab`` in a subprocess that imports this same package."""
    src = str(Path(bosonlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bosonlab", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
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


def test_out_seed_and_tol_overrides(config_file, tmp_path, capsys):
    out = tmp_path / "elsewhere.csv"
    code = main(
        [
            "converge",
            "--config",
            str(config_file),
            "--out",
            str(out),
            "--seed",
            "7",
            "--tol",
            "1e-8",
        ]
    )
    assert code == 0 and out.exists()
    capsys.readouterr()


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
        ("bbgky", {"n_values": [64], "telescope_orders": [1, 40]}, "max(telescope_orders) + 1"),
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
    "scenario, changes, message",
    [
        ("lr", {"obs_m": 5, "obs_n": 2}, "obs_m + obs_n: order 7 exceeds N = 6"),
        ("corr", {"obs_m": 3, "obs_n": 2}, "obs_m + obs_n: order 5 exceeds N = 4"),
        ("bbgky", {"k_values": [4]}, "max(k_values) + 2: order 6 exceeds N = 5"),
    ],
)
def test_orders_above_the_smallest_n_refused_at_config_time(
    tmp_path, capsys, monkeypatch, scenario, changes, message
):
    def never(config):
        raise AssertionError("the runner must not start")

    monkeypatch.setattr(cli_module.SCENARIOS[scenario], "run", never)
    path = _shipped(tmp_path, scenario, **changes)
    assert main([scenario, "--config", str(path)]) == 1
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


@pytest.mark.parametrize(
    "scenario, n_values, workable",
    [
        ("converge", list(range(2, 3000)), 1571),
        ("lr", list(range(8, 200)), 95),
        ("converge", [4, 8, 16, 10**5], 36005),  # the named N replaces the last one
        ("converge", [10**400], 36005),  # prices past the largest float read as inf
        ("corr", [10**400], 36005),
        ("bbgky", [10**400], 25317),
    ],
)
def test_runs_priced_whole_at_config_time(tmp_path, capsys, monkeypatch, scenario, n_values, workable):
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
    assert err.startswith("error: n_values: ")
    max_n = int(re.search(r"the largest workable n_values\[-1\] is (\d+)\n$", err).group(1))
    assert max_n == workable
    cfg = json.loads(path.read_text())
    config_from_dict({**cfg, "n_values": [x for x in n_values if x < max_n] + [max_n]})
    with pytest.raises(ConfigError, match=r"^n_values: "):
        config_from_dict({**cfg, "n_values": [x for x in n_values if x <= max_n] + [max_n + 1]})
    assert not (tmp_path / "out.csv").exists()


def test_memory_error_ends_in_an_error_line(config_file, capsys, monkeypatch):
    def exhausted(config):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(cli_module.SCENARIOS["converge"], "run", exhausted)
    assert main(["converge", "--config", str(config_file)]) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 64.0 GiB for an array\n"
    assert "Traceback" not in err


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
    ],
)
def test_removed_vtilde_search_refused(tmp_path, capsys, changes, message):
    # the randomized vtilde search is gone; an old config asking for it is refused
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
