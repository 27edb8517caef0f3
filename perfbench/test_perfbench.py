"""Checks of the benchmark itself, on shrunken copies of the workloads.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL_N = {"converge_sector": [4, 6], "corr_rdm": [5, 7], "lr_fullspace": [4, 5]}


def _small_config(workload, seed):
    config = workloads.generate(workload, seed)
    config["n_values"] = SMALL_N[workload]
    return config


def _traced_sample(tmp_path, workload, tag, seed=11):
    config_path = tmp_path / f"{workload}.json"
    config_path.write_text(json.dumps(_small_config(workload, seed)), encoding="utf-8")
    sample = run._run_sample(
        ROOT,
        run.child_env(ROOT),
        config_path,
        tmp_path / f"{workload}-{tag}.csv",
        tmp_path / f"{workload}-{tag}.spans.json",
        120.0,
    )
    assert sample["problems"] == []
    return sample


def test_generator_is_a_pure_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
        assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_generated_configs_pass_validation():
    sys.path.insert(0, str(ROOT / "src"))
    from bosonlab import load_config

    for workload, shape in workloads.WORKLOADS.items():
        config = load_config(json.dumps(workloads.generate(workload, 3)))
        assert config.scenario == shape["scenario"]
        assert list(config.n_values) == shape["n_values"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_exact_counters_repeat_and_match_the_workload_shape(tmp_path, workload):
    samples = [_traced_sample(tmp_path, workload, tag) for tag in ("a", "b")]
    values, absent, errors = run.per_layer(samples, 1.0)
    assert all(s["problems"] == [] for s in samples), "counters differ between traced runs"
    assert absent == [] and errors == {}

    config = _small_config(workload, 11)
    n_values, n_times = config["n_values"], len(config["time_grid"])
    if workload == "lr_fullspace":
        builds = config["n_samples"] * len(n_values)
        assert values["exact_dynamics.fullspace_build.calls"] == builds
        assert values["exact_dynamics.fullspace_build.useful_ratio"] == len(n_values) / builds
    else:
        assert values["exact_dynamics.evolve_exact.states"] == len(n_values) * n_times
        assert values["symmetric_space.build_hamiltonian.calls"] == len(n_values)
    if workload == "corr_rdm":
        gaps = len(n_values) * n_times * config["n_samples"]
        assert values["symmetric_space.rdm.calls"] == 3 * gaps
        assert values["symmetric_space.rdm.useful_ratio"] == 1 / config["n_samples"]
    # at these tiny sizes the runner's own glue is a large share of the wall
    # time, so only the range of the coverage ratio is checked here
    assert 0 < values["trace.coverage"] <= 1


def test_every_declared_layer_metric_is_produced(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    produced = set()
    for workload in workloads.WORKLOADS:
        sample = _traced_sample(tmp_path, workload, "a")
        values, _, _ = run.per_layer([sample], 1.0)
        produced |= {name for name, value in values.items() if value}
    missing = {m["name"] for m in declared} - produced - {"trace.absent_layers"}
    assert not missing


def test_oracle_rejects_a_perturbed_row(tmp_path):
    for workload in workloads.WORKLOADS:
        sample = _traced_sample(tmp_path, workload, "a")
        config = _small_config(workload, 11)
        checked, worst, problems = oracle.check(config, sample["csv"])
        assert checked > 0 and problems == [], problems

        lines = sample["csv"].read_text().splitlines()
        header = lines[1].split(",")
        column = header.index("trace_distance" if workload == "converge_sector" else "lhs")
        for i in range(2, len(lines)):
            cells = lines[i].split(",")
            if cells[header.index("N")] == str(config["n_values"][0]) and float(cells[column]) > 0:
                cells[column] = repr(float(cells[column]) + 1e-8)
                lines[i] = ",".join(cells)
                break
        sample["csv"].write_text("\n".join(lines) + "\n")
        assert oracle.check(config, sample["csv"])[2], f"{workload}: perturbation not caught"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corr_rdm", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
