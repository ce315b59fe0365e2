"""Host context for a benchmark run: fingerprint, reference kernel, memory.

The reference kernel is a fixed piece of work that never changes with the
program under test.  Timing it between units of work tells a slow host
apart from a slow change: ``host_ref_ms`` is reported for context, and
``search_ref_ratio`` divides each unit's time by the kernel time measured
around it.  ``threaded_reference_ms`` runs the same kind of work on two
threads at once; ``setup_s`` is scaled by it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

import numpy as np

_REF_RNG = np.random.default_rng(12345)
_REF_SCORES = _REF_RNG.random((64, 225))
_REF_MASK = _REF_RNG.random((64, 225)) < 0.8
_REF_ROWS = _REF_RNG.random((16, 128))
_REF_WEIGHTS = _REF_RNG.random((128, 128))


def reference_kernel_ms(rounds: int = 150) -> float:
    """Run the fixed reference kernel once; returns its wall time in ms.

    The mix mirrors a tree search on this stack: interpreted bookkeeping
    (dict and list traffic) interleaved with small NumPy reductions.
    """
    t0 = time.perf_counter()
    visits: dict[int, int] = {}
    path: list[int] = []
    acc = 0.0
    for i in range(rounds):
        row = i % 64
        scores = np.where(_REF_MASK[row], _REF_SCORES[row], -1.0)
        best = int(np.argmax(scores))
        for depth in range(12):
            key = (best * 31 + depth * 7 + i) % 997
            visits[key] = visits.get(key, 0) + 1
            path.append(key)
        acc += float(scores[best])
        while path:
            visits[path.pop()] -= 1
    elapsed = (time.perf_counter() - t0) * 1e3
    assert acc > 0 and not any(visits.values())
    return elapsed


def threaded_reference_ms() -> float:
    """Run a fixed kernel on two threads at once, as many as the threaded
    workloads use; returns its wall time in ms.

    Each thread mixes the reference kernel with small matrix products,
    which release the GIL as the network's forward pass does.  A busy
    host slows threaded work through GIL hand-offs and lost parallelism
    more than it slows one thread, and this kernel slows with it.
    """
    def body() -> None:
        for _ in range(3):
            reference_kernel_ms(50)
            for _ in range(20):
                (_REF_ROWS @ _REF_WEIGHTS).sum()

    t0 = time.perf_counter()
    workers = [threading.Thread(target=body) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return (time.perf_counter() - t0) * 1e3


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_info() -> dict:
    info: dict = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except Exception:  # noqa: BLE001 -- informational only
        info["blas"] = None
    info["blas_threads"] = _openblas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var)
    return info


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, if it is one."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def fingerprint() -> dict:
    """What a reader needs to judge the host a run came from."""
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **_blas_info(),
    }
