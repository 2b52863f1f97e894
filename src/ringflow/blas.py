"""The BLAS thread count: one thread for every CLI command and sweep worker.

`cli.main` runs its command inside `one_thread()`, so that its outputs do not
depend on the thread count, and restores the caller's counts on return; the
sweep workers call `set_threads(1)` when they start.  The thread-count getter
and setter of every OpenBLAS in the process (numpy and scipy each load a
scipy-openblas build) are looked up once, at import; any other BLAS is left
as it is.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS before the lookup)

_NAMES = [f"{lib}_{{}}_num_threads{abi}" for lib in ("openblas", "scipy_openblas")
          for abi in ("", "64_")]
# a scope reads, sets and restores the counts: threads take turns
_SCOPE_LOCK = threading.RLock()


def _thread_controls() -> list:
    """(getter, setter) of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:  # no /proc: leave the BLAS as it is
        paths = set()
    controls = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _NAMES:
            get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                controls.append((get, set_))
    return controls


_CONTROLS = _thread_controls()


def threads() -> list[int]:
    """The thread count of each OpenBLAS in this process."""
    return [get() for get, _ in _CONTROLS]


def set_threads(count: int) -> None:
    for _, set_ in _CONTROLS:
        set_(count)


@contextmanager
def one_thread():
    """Run the block on one BLAS thread, then restore the previous counts."""
    with _SCOPE_LOCK:
        previous = threads()
        set_threads(1)
        try:
            yield
        finally:
            for (_, set_), count in zip(_CONTROLS, previous):
                set_(count)
