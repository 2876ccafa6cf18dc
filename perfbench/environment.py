"""Record the machine and toolchain the benchmark figures were taken on.

Usage (from the repository root): ``python3 perfbench/environment.py``
writes ``perfbench/environment.json``.  Figures compare only between runs on
the same record.  ``numba_importable`` matters because
``fourier.quadratic_mean`` silently takes its compiled path when numba is
present; the OpenBLAS thread count matters for the dense alignment matvecs
of ``vaughan_probe``.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.metadata
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR.parent,
                         capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "git_sha": sha.stdout.strip() or "unknown",
    }


def main() -> int:
    (BENCH_DIR / "environment.json").write_text(json.dumps(record(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
