"""The record that goes with every result, so that numbers from different
machines or library builds are never compared silently."""

import ctypes
import hashlib
import json
import os
import platform

#: thread settings the benchmark imposes on every workload process: one
#: worker (VMSNS_THREADS) and single-threaded BLAS, so the 2-core budget
#: is not oversubscribed and small dense kernels do not pay thread wake-ups
THREAD_ENV = {
    "VMSNS_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_THREAD_QUERIES = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_")


def _loaded_blas():
    """Paths of the BLAS libraries mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                name = os.path.basename(parts[-1]).lower()
                if name.startswith("lib") and "blas" in name:
                    paths.add(parts[-1])
    except OSError:
        pass
    return sorted(paths)


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    for path in _loaded_blas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _blas_name(show_config):
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    """HEAD of the checkout, read from .git without running git (a checkout
    that is not a repository gives None)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def record(root):
    """Environment of this process; call after numpy and scipy are loaded."""
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_name(numpy.show_config),
        "scipy_blas": _blas_name(scipy.show_config),
        "blas_threads": blas_threads(),
        "VMSNS_THREADS": os.environ.get("VMSNS_THREADS"),
        "git_commit": git_commit(root),
    }
    machine = {k: v for k, v in env.items() if k != "git_commit"}
    env["fingerprint"] = hashlib.sha256(
        json.dumps(machine, sort_keys=True).encode()).hexdigest()[:12]
    return env

