"""bosonlab benchmark: seeded scenario workloads through the public CLI.

    python3 perfbench/run.py --workload converge_sector --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each sample is a fresh process (perfbench/child.py) that imports bosonlab
from ``src/``, validates the generated config (``setup_s``) and runs
``bosonlab.cli.main`` once (``run_s``), the way a user pays for
``bosonlab <scenario> --config ...``; ``peak_rss_mib`` is that process's
peak resident memory.  Samples run one at a time, closed loop, with BLAS
limited to min(nproc, 2) threads, until the next sample would likely end
after ``--seconds`` (at least MIN_SAMPLES of them); each metric is the
median over samples.

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json.
``--trace 1`` adds TRACED_RUNS traced samples and reports the per-layer
metrics: self time of each wrapped layer (perfbench/tracer.py), exact work
counters, which must repeat exactly between the traced samples, and the
tracing overhead against the untraced samples of the same invocation.

Correctness gate; a sample that fails any check counts in ``failed``:
exit code 0, no ``violation`` row, a CSV byte-identical to every other
sample of the invocation, and smallest-N rows that match the independent
recomputation in perfbench/oracle.py to 1e-10.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Everything else the run produces (configs, CSVs, spans and a
result.json with the environment block) goes under .perfbench_out/.
"""

import argparse
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer
import workloads

MIN_SAMPLES = 3
TRACED_RUNS = 2
# stop starting samples after this many seconds, so one invocation always
# ends well inside three minutes even if the program gets much slower
SAMPLING_LIMIT_S = 140.0
CHILD_LIMIT_S = 160.0

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    threads = str(min(_nproc(), 2))
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    return env


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root, env):
    """The facts every result carries: machine, libraries, numba path, commit."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "--probe"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_LIMIT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"environment probe failed: {proc.stderr.strip()[-2000:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info.update(
        nproc=_nproc(),
        blas_threads_env=int(env["OPENBLAS_NUM_THREADS"]),
        git_commit=_git_commit(root),
        src_sha256=_source_digest(root),
    )
    return info


def _run_sample(root, env, config_path, csv_path, trace_path, time_left):
    cmd = [
        sys.executable,
        str(root / "perfbench" / "child.py"),
        "--config",
        str(config_path),
        "--out",
        str(csv_path),
    ]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    sample = {"csv": csv_path, "trace": trace_path, "record": None, "problems": []}
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(time.perf_counter())],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(time_left, 1.0),
        )
    except subprocess.TimeoutExpired:
        sample["problems"].append("timed out")
        return sample
    lines = proc.stdout.strip().splitlines()
    try:
        sample["record"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sample["problems"].append(f"no result; stderr: {proc.stderr.strip()[-500:]}")
    if proc.returncode != 0:
        sample["problems"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return sample


def _violations(csv_path):
    with open(csv_path, encoding="utf-8", newline="") as f:
        rows = csv.DictReader(line for line in f if not line.startswith("#"))
        return sum(1 for row in rows if row.get("violation") == "1")


def gate(config, samples):
    """Apply the correctness checks; returns the oracle summary line."""
    written = [s for s in samples if s["record"] is not None and s["csv"].exists()]
    for s in samples:
        if s["record"] is not None and not s["csv"].exists():
            s["problems"].append("no CSV written")
    if not written:
        return "oracle not run: no CSV"
    reference = written[0]["csv"].read_bytes()
    try:
        checked, worst, mismatches = oracle.check(config, written[0]["csv"])
    except (KeyError, ValueError) as exc:
        checked, worst, mismatches = 0, float("nan"), [f"unreadable CSV: {exc!r}"]
    for s in written:
        violations = _violations(s["csv"])
        if violations:
            s["problems"].append(f"{violations} violation row(s)")
        if s["csv"].read_bytes() != reference:
            s["problems"].append("CSV differs from the first sample's")
        else:
            s["problems"].extend(mismatches)
            if s is not written[0]:
                s["csv"].unlink()
    return f"oracle: {checked} smallest-N rows, worst abs error {worst:.3e}, tolerance {oracle.TOLERANCE:g}"


def end_to_end(samples):
    timed = [s["record"] for s in samples if s["record"] and s["record"]["run_s"] is not None]
    if not timed:
        return {}, 0
    return {
        "run_s": statistics.median(r["run_s"] for r in timed),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in timed) / 1024,
    }, len(timed)


def per_layer(traced, untraced_run_s):
    """Per-layer values from the traced samples; a counter mismatch between
    them is recorded as a problem on the later sample."""
    traces = []
    for s in traced:
        if s["record"] is not None and s["trace"].exists():
            with open(s["trace"], encoding="utf-8") as f:
                traces.append(json.load(f))
    if not traces:
        return {}, [], {}
    exact = ("counts", "distinct", "absent", "counter_errors")
    for s, t in zip(traced[1:], traces[1:]):
        if any(t[key] != traces[0][key] for key in exact):
            s["problems"].append("exact counters differ between traced runs")
    summaries = [tracer.summarize(t) for t in traces]
    values = dict(traces[0]["counts"])
    names = [f"{m}.{f}" for m, f, _ in tracer.LAYERS] + [tracer.ROOT]
    for name in names:
        values[f"{name}.self_s"] = statistics.median(s[0].get(name, 0.0) for s in summaries)
    for name, distinct in traces[0]["distinct"].items():
        values[f"{name}.useful_ratio"] = distinct / values[f"{name}.calls"]
    wall = statistics.median(s[1] for s in summaries)
    values["trace.wall_s"] = wall
    values["trace.coverage"] = statistics.median(s[2] for s in summaries)
    values["trace.absent_layers"] = len(traces[0]["absent"])
    if untraced_run_s:
        values["trace.overhead"] = (wall - untraced_run_s) / untraced_run_s
    return values, traces[0]["absent"], traces[0]["counter_errors"]


def run_workload(root, env, declared, workload, seed, seconds, trace):
    start = time.perf_counter()
    out_dir = root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config = workloads.generate(workload, seed)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")

    def sample(trace_path=None):
        csv_path = out_dir / f"sample-{len(samples):02d}.csv"
        time_left = CHILD_LIMIT_S - (time.perf_counter() - start)
        samples.append(_run_sample(root, env, config_path, csv_path, trace_path, time_left))

    samples = []
    if trace:
        for k in range(TRACED_RUNS):
            sample(out_dir / f"spans-{k}.json")
    traced = list(samples)
    durations = []
    while True:
        elapsed = time.perf_counter() - start
        # stop once the next sample would likely end past the deadline
        expected = statistics.median(durations) if durations else 0.0
        enough = len(durations) >= MIN_SAMPLES and elapsed + expected > seconds
        if enough or elapsed >= SAMPLING_LIMIT_S:
            break
        sample()
        durations.append(time.perf_counter() - start - elapsed)
    untraced = samples[len(traced):]

    oracle_line = gate(config, samples)
    e2e, n_timed = end_to_end(untraced)
    layers, absent, counter_errors = per_layer(traced, e2e.get("run_s")) if trace else ({}, [], {})
    values = layers if trace else e2e
    kind = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared[kind]
    }
    failed = sum(1 for s in samples if s["problems"])
    lines = [f"workload {workload} seed {seed} trace {trace}: runs_failed {failed} / runs_attempted {len(samples)}"]
    lines += [f"  {s['csv'].name}: {'; '.join(s['problems'])}" for s in samples if s["problems"]]
    lines.append(f"  {oracle_line}")
    if absent:
        lines.append(f"  absent layers: {', '.join(absent)}")
    for name, error in counter_errors.items():
        lines.append(f"  counter unavailable for {name}: {error}")
    count_note = f" (median of {n_timed} samples)" if not trace else ""
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}{count_note}")
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "samples": [
            {"csv": s["csv"].name, "record": s["record"], "problems": s["problems"]} for s in samples
        ],
    }
    return result, lines, out_dir


def main(argv=None):
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (root / "src" / "bosonlab" / "cli.py").is_file():
        print(f"error: no bosonlab source tree under {root / 'src'}", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)

    env = child_env(root)
    try:
        info = environment(root, env)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(info, sort_keys=True))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, lines, out_dir = run_workload(
            root, env, declared, name, args.seed, args.seconds, args.trace
        )
        result["env"] = info
        (out_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
        print("\n".join(lines))
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = value
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
