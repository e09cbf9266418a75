"""Facts about the machine and numerical build a measurement ran on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def environment() -> dict:
    """Interpreter, numpy, BLAS, thread and CPU facts for the record."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['blas'].get('name')} {blas['blas'].get('version')}",
        "lapack": f"{blas['lapack'].get('name')} {blas['lapack'].get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "llc": _last_level_cache(),
    }


def platform_key() -> str:
    """Identifies the numerical platform: numpy, BLAS build and BLAS kernel."""
    config = _openblas_call("get_config", ctypes.c_char_p)
    if config is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = f"{blas.get('name')} {blas.get('version')}"
    return f"numpy {np.__version__}; {config}"


def _blas_threads():
    """Thread count OpenBLAS reports, or the limiting variable, or None."""
    threads = _openblas_call("get_num_threads", ctypes.c_int)
    if threads is not None:
        return threads
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def _openblas_call(what: str, restype):
    """Call an argument-free OpenBLAS query in the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{what}64_", f"openblas_{what}64_", f"openblas_{what}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                return value.decode() if isinstance(value, bytes) else value
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, "unknown")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]
