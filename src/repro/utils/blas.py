"""Keep the OpenBLAS thread count NumPy runs with across ``os.fork``.

OpenBLAS shuts its thread pool down before a fork.  The pool it restarts
afterwards, in the parent and in the child alike, is slow until the
thread count is set again: on a 2-vCPU host a G=4 self-play engine in a
parent that had just forked ran at 15 moves/s, against 158-169 before
the fork.  Importing :mod:`repro` registers fork hooks that set it
again, to the count the process already has, so no result moves and no
option is needed.

The library is the OpenBLAS bundled with NumPy, found in ``numpy.libs``
and driven through ``ctypes``.  Where there is none, every function here
does nothing.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

__all__ = ["openblas_threads", "set_openblas_threads"]

#: (getter, setter) symbol pairs: scipy-openblas's 64-bit build, then
#: the plain OpenBLAS names
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _load_openblas() -> tuple | None:
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for get, set_ in _SYMBOLS:
            getter = getattr(handle, get, None)
            setter = getattr(handle, set_, None)
            if getter is not None and setter is not None:
                return getter, setter
    return None


_OPENBLAS = _load_openblas()


def openblas_threads() -> int | None:
    """NumPy's OpenBLAS thread count, or ``None`` without OpenBLAS."""
    return None if _OPENBLAS is None else int(_OPENBLAS[0]())


def set_openblas_threads(count: int) -> None:
    """Set NumPy's OpenBLAS thread count; a no-op without OpenBLAS."""
    if _OPENBLAS is not None:
        _OPENBLAS[1](int(count))


def _reapply_count() -> None:
    # the fork leaves the count itself as it was; setting it again is what
    # brings the restarted thread pool back to speed
    set_openblas_threads(openblas_threads())


if _OPENBLAS is not None:
    os.register_at_fork(after_in_parent=_reapply_count, after_in_child=_reapply_count)
