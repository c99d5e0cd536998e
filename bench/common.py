"""Shared helpers: paths, child environment, statistics and the run record.

Only the standard library is imported at module level, so callers can
run ``use_source_tree`` (which sets the thread limits) before numpy loads.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("cli-startup", "lattice", "offlattice-grid-mc")

# One compute thread per process: the benchmark targets 2 CPUs, and the harness
# process is alive next to the process it measures.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# The tail latency reported as op_ms.tail.  Fixed, so that a faster
# commit (more samples per run) reports the same statistic as a slower one.
TAIL_PERCENTILE = 90


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def use_source_tree() -> None:
    """Make ``import sizebias`` load the package from this checkout."""
    for k, v in THREAD_ENV.items():
        os.environ.setdefault(k, v)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def require_source_tree() -> None:
    if not os.path.isfile(os.path.join(SRC, "sizebias", "cli.py")):
        raise SystemExit(f"error: no package source at {SRC}/sizebias; "
                         "run from the root of a full checkout")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def scaling_exp(t1: float, t2: float, s1: float, s2: float) -> float:
    """Exponent b in t ~ s^b through two (size, time) points."""
    if t1 <= 0 or t2 <= 0:
        return float("nan")
    return math.log(t2 / t1) / math.log(s2 / s1)


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if not found."""
    import ctypes
    import glob
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Machine and software facts printed with every run."""
    import numpy
    import scipy
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "child_thread_env": THREAD_ENV,
            "machine": platform.machine()}
