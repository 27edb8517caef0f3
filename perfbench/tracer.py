"""Spans and exact counters for the traced run, recorded from outside bosonlab.

``install`` wraps the public layer functions listed in LAYERS by replacing
every bosonlab module global that refers to the original function, which is
how the scenario runners look them up; the program's files are not edited.
A function that no longer exists is reported as an absent layer.

Spans are kept in memory and written out by ``dump``: name, start, end and
the index of the enclosing span.  Counters are computed after a span closes,
so their cost falls outside every layer's own span.
"""

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np


def _digest(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _count_states(args, result):
    return {"states": len(result)}, None


def _count_hamiltonian(args, result):
    dim = result.shape[0]
    nnz = result.nnz if hasattr(result, "nnz") else int(np.count_nonzero(result))
    # dense_bytes is computed (16 bytes per complex entry of a D x D matrix),
    # not measured
    return {"nnz": nnz, "dense_bytes": 16 * dim * dim}, None


def _count_rdm(args, result):
    return {}, (_digest(args["state"].amplitudes), args["k"])


def _count_fullspace(args, result):
    spec = args["spec"]
    key = _digest(*(spec.terms[m].matrix for m in sorted(spec.terms)))
    return {}, (spec.d, key, args["n_particles"])


def _count_basis(args, result):
    return {"symmetric_space.basis_states": result.size}, None


def _count_hartree(args, result):
    return {"steps": len(result.step_times)}, None


def _count_rows(args, result):
    return {"experiments.rows": len(args["rows"]), "bytes": os.path.getsize(args["path"])}, None


# (module, function, counter).  A counter maps the bound arguments and the
# result to (increments, distinct_key): increments named without a dot are
# per layer; distinct keys feed the layer's useful_ratio.  The comment on
# each entry is the end-to-end metric and workload the layer should move.
LAYERS = (
    # run_s on converge_sector (basis_states: summed D); under 1% today
    ("symmetric_space", "enumerate_basis", _count_basis),
    ("symmetric_space", "embed_product_state", None),
    # run_s and peak_rss_mib on converge_sector
    ("symmetric_space", "build_hamiltonian", _count_hamiltonian),
    # run_s on corr_rdm; under 1% of run_s on converge_sector
    ("symmetric_space", "rdm", _count_rdm),
    # run_s and peak_rss_mib on converge_sector; ~2% of corr_rdm, absent from lr
    ("exact_dynamics", "evolve_exact", _count_states),
    # run_s on corr_rdm
    ("exact_dynamics", "correlation_gap", None),
    # run_s and peak_rss_mib on lr_fullspace only
    ("exact_dynamics", "commutator_growth", None),
    ("exact_dynamics", "fullspace_build", _count_fullspace),
    # run_s on converge_sector; well under 1%, so a gain here stays invisible
    ("hartree", "hartree_evolve", _count_hartree),
    # run_s on every workload; each at most 0.1% today
    ("operators", "vtilde", None),
    ("operators", "bound_constants", None),
    ("bounds", "trace_distance", None),
    # setup_s (the CLI parses the config again inside run_s)
    ("experiments", "load_config", None),
    # run_s on every workload (rows: rows written)
    ("experiments", "write_rows", _count_rows),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.distinct = {}
        self.absent = []
        self.counter_errors = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _add(self, name, increments):
        for key, value in increments.items():
            full = key if "." in key else f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + value

    def wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._add(name, {"calls": 1})
            if counter is not None and name not in self.counter_errors:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    increments, key = counter(bound, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    self.counter_errors[name] = repr(exc)
                else:
                    self._add(name, increments)
                    if key is not None:
                        self.distinct.setdefault(name, set()).add(key)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": self.counts,
                    "distinct": {name: len(keys) for name, keys in self.distinct.items()},
                    "absent": self.absent,
                    "counter_errors": self.counter_errors,
                },
                f,
            )


def install(tracer):
    """Wrap every layer function that exists; record the others as absent."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "bosonlab"]
    for module_name, function_name, counter in LAYERS:
        name = f"{module_name}.{function_name}"
        try:
            module = importlib.import_module(f"bosonlab.{module_name}")
        except ImportError:
            tracer.absent.append(name)
            continue
        original = getattr(module, function_name, None)
        if not callable(original):
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, original, counter)
        for mod in modules + [module]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def summarize(trace):
    """Self time per span name, the root span's wall time, and coverage: the
    share of that wall time spent in layer self time rather than in glue."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {}
    wall = 0.0
    for (name, start, end, _), inner in zip(spans, child_time):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        if name == ROOT:
            wall += end - start
    layer_time = sum(v for k, v in self_s.items() if k != ROOT)
    return self_s, wall, (layer_time / wall if wall > 0 else 0.0)
