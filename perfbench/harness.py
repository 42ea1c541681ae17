"""Shared pieces of the dstc benchmark.

Environment handling (BLAS thread variables, the run fingerprint), the
import of the program from this checkout, the drift calibration, the
memory ceiling, quantiles and the canonical form of CLI output used for
the pinned sha256 checks. This module imports numpy only inside functions,
so that ``unset_blas_thread_vars`` can run before numpy is loaded.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

DEFAULT_SEED = 0
THREADS = max(1, min(2, os.cpu_count() or 1))

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(RuntimeError):
    """The program or the workload could not be set up; no result is printed."""


def unset_blas_thread_vars() -> dict:
    """Remove BLAS/OpenMP thread limits so the program runs as users get it.

    Must run before numpy is imported. Returns the removed variables.
    """
    return {name: os.environ.pop(name) for name in BLAS_THREAD_VARS if name in os.environ}


def program_seed(seed: int) -> int:
    """Map any integer seed onto the range every dstc seed argument accepts."""
    return seed % (1 << 31)


def import_program():
    """Import ``dstc`` (with its CLI) from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dstc" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {SRC / 'dstc'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dstc
    import dstc.cli  # noqa: F401  (loads every module)

    if Path(dstc.__file__).resolve().parent != (SRC / "dstc").resolve():
        raise SetupError(f"dstc was imported from {dstc.__file__}, not from {SRC}")
    return dstc


# ---------------------------------------------------------------------------
# environment fingerprint and drift calibration
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(unset_env: dict) -> dict:
    """What the numbers depend on besides the code. ``id`` hashes the machine/software part."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    info = {
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bench_threads": THREADS,
    }
    info["id"] = hashlib.sha256(json.dumps(info, sort_keys=True).encode()).hexdigest()[:12]
    info["unset_env"] = unset_env
    return info


def drift_calibration() -> dict:
    """Fixed-size GEMM and Philox draw timings: tells a slow machine from slow code."""
    import numpy as np

    a = np.random.default_rng(1).standard_normal((256, 256))
    a @ a  # wake the BLAS threads
    gemm = []
    for _ in range(15):
        t0 = time.perf_counter()
        a @ a
        gemm.append(time.perf_counter() - t0)
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    draw = []
    for _ in range(5):
        t0 = time.perf_counter()
        gen.standard_normal(1 << 20)
        draw.append(time.perf_counter() - t0)
    g = statistics.median(gemm)
    return {
        "gemm256_ms": g * 1e3,
        "gemm256_gflops": 2 * 256**3 / g / 1e9,
        "philox_ns_per_normal": statistics.median(draw) / (1 << 20) * 1e9,
    }


def memory_ceiling_bytes() -> int:
    """Largest working set a simulation configuration may plan: half of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# statistics and canonical output
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default), defined for one sample too."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


_HEX = re.compile(r"\b[0-9a-f]{16,64}\b")
_FLOAT = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)(?![\w.])")


def _canonical_float(match) -> str:
    x = float(match.group())
    return "0" if abs(x) < 1e-9 else f"{x:.9g}"


def canonical(text: str) -> str:
    """Output with hashes masked and floats cut to 9 significant digits.

    Last-digit differences between BLAS kernels then do not change the hash,
    while any real change of a result still does.
    """
    return _FLOAT.sub(_canonical_float, _HEX.sub("<hex>", text))


def canonical_sha256(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(canonical(text).encode())
        h.update(b"\0")
    return h.hexdigest()
