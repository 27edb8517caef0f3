"""One benchmark sample in a fresh process.

    python3 perfbench/child.py --spawned T --config C --out O [--trace SPANS]
    python3 perfbench/child.py --probe

A sample imports bosonlab and validates the config (set-up, timed from T,
the parent's ``time.perf_counter()`` just before it started this process;
that clock is system-wide), then runs ``bosonlab.cli.main`` once, timed on
its own.  With ``--trace`` the layer functions are wrapped first and the
spans are written to SPANS.  The last stdout line is a JSON record and the
exit code is the CLI's.  ``--probe`` prints the interpreter, library and
BLAS facts of this environment instead.
"""

import argparse
import json
import resource
import sys
import time


def _blas_threads():
    """Threads the OpenBLAS that numpy loaded will use, or None if unknown."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _peak_rss_kib():
    """Peak resident memory of this process image, in KiB.

    Linux carries ru_maxrss across exec, so a child started from a large
    parent would inherit the parent's peak; VmHWM belongs to this image only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def probe():
    from importlib.metadata import PackageNotFoundError, version

    import numpy as np

    import bosonlab

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "bosonlab_version": getattr(bosonlab, "__version__", None),
        "HAS_NUMBA": getattr(bosonlab, "HAS_NUMBA", None),
        "USE_NUMBA": getattr(bosonlab, "USE_NUMBA", None),
    }


def sample(args):
    from bosonlab import cli, experiments

    with open(args.config, encoding="utf-8") as f:
        config = experiments.load_config(f.read())
    setup_s = time.perf_counter() - args.spawned
    argv = [config.scenario, "--config", args.config, "--out", args.out]
    if args.trace:
        from tracer import ROOT, Tracer, install

        tracer = Tracer()
        install(tracer)
        with tracer.span(ROOT):
            code = cli.main(argv)
        tracer.dump(args.trace)
        run_s = None
    else:
        start = time.perf_counter()
        code = cli.main(argv)
        run_s = time.perf_counter() - start
    record = {"exit_code": code, "setup_s": setup_s, "run_s": run_s, "peak_rss_kib": _peak_rss_kib()}
    return code, record


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(probe()))
        return 0
    code, record = sample(args)
    print(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
