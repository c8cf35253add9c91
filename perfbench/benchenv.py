"""BLAS thread pinning and environment capture for every benchmark process.

``pin_blas_threads`` must run before numpy is first imported: OpenBLAS,
OpenMP and MKL read their thread count once, when the library loads.
This module therefore imports nothing heavy at module level.
"""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin BLAS to one thread, in this process and every child it starts."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def thread_count() -> int:
    """Operating-system threads of this process (BLAS workers included)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def capture() -> dict:
    """Versions, BLAS build, core count, thread pin and observed threads."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no mode="dicts"
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "thread_pin": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_observed": thread_count(),
    }
