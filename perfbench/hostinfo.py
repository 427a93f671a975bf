"""Host facts and process accounting read from ``/proc`` and the BLAS.

Linux-only: resident memory comes from ``/proc/self/status``.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def _status_kb(field: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise KeyError(f"{field} missing from /proc/self/status")


def rss_mb() -> float:
    """Current resident set size in MiB."""
    return _status_kb("VmRSS") / 1024.0


def peak_rss_mb() -> float:
    """Peak resident set size in MiB."""
    return _status_kb("VmHWM") / 1024.0


def reset_peak_rss() -> None:
    """Restart the peak (VmHWM) count from the current resident size."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def cpu_s() -> float:
    """User + system CPU seconds of this process."""
    times = os.times()
    return times.user + times.system


def _openblas():
    """The OpenBLAS library numpy loaded, found in this process's maps."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        if path.endswith(".so") or ".so." in path:
            return ctypes.CDLL(path)
    return None


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use (its own report).

    Falls back to ``OPENBLAS_NUM_THREADS`` when the library exports no
    thread query.
    """
    lib = _openblas()
    if lib is not None:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))


def describe() -> dict:
    """Host header printed with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "machine": platform.machine(),
    }
