"""One-thread BLAS cap for the fit path's small dense algebra.

C-BMF fits from few samples, so its dual-space matrices are small: a
16-state fit with 15 rows per state factorizes 240 × 240 kernels and
runs Woodbury updates of about 180 × 180 × 16. At these sizes a
multi-threaded OpenBLAS spends more on waking and joining its threads
than it saves, so :func:`single_blas_thread` runs such code on one
thread and then restores whatever count was set before.

Every loaded OpenBLAS build is capped — NumPy and SciPy each ship their
own (``scipy_openblas64_`` and ``scipy_openblas`` in the wheels), and a
``scipy.linalg`` solve runs on SciPy's copy, not NumPy's. The builds are
found through the process's loaded-library list (``/proc/self/maps``)
and driven through ``ctypes``; where none is found (another BLAS vendor,
a platform without ``/proc``) the cap is a silent no-op.

The thread count is process-wide state, so the cap is too: it is
reentrant and lock-protected across threads. The outermost entry saves
each build's count and sets it to 1; only the last exit restores the
saved counts. While any fit holds the cap, every other BLAS call in the
process also runs on one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Dict, List, Optional, Tuple

__all__ = [
    "BlasBuild",
    "blas_builds",
    "blas_thread_counts",
    "single_blas_thread",
]

#: (get, set) symbol pairs of the OpenBLAS builds we know how to drive:
#: upstream, its ILP64 variant, and the ``scipy-openblas`` wheels.
_SYMBOLS: Tuple[Tuple[str, str], ...] = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


class BlasBuild:
    """One loaded OpenBLAS shared library and its thread-count controls."""

    def __init__(self, path: str, get_fn, set_fn) -> None:
        self.path = path
        self._get = get_fn
        self._set = set_fn

    @property
    def name(self) -> str:
        """The library's file name, e.g. ``libscipy_openblas-….so``."""
        return os.path.basename(self.path)

    def get_threads(self) -> int:
        """The build's current thread count."""
        return int(self._get())

    def set_threads(self, count: int) -> None:
        """Set the build's thread count for every later call."""
        self._set(int(count))


def _loaded_openblas_paths() -> List[str]:
    """Paths of mapped shared objects whose file name mentions OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        path = line.split(maxsplit=5)[-1].strip()
        name = os.path.basename(path).lower()
        if "openblas" in name and ".so" in name and path not in paths:
            paths.append(path)
    return paths


def _open_build(path: str) -> Optional[BlasBuild]:
    """Bind an already-loaded library's get/set pair, or None."""
    mode = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_NOW", 0)
    try:
        library = ctypes.CDLL(path, mode=mode)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        get_fn = getattr(library, get_name, None)
        set_fn = getattr(library, set_name, None)
        if get_fn is not None and set_fn is not None:
            get_fn.argtypes = []
            get_fn.restype = ctypes.c_int
            set_fn.argtypes = [ctypes.c_int]
            set_fn.restype = None
            return BlasBuild(path, get_fn, set_fn)
    return None


def _discover() -> List[BlasBuild]:
    # NumPy and SciPy load their BLAS builds on import; import both so
    # discovery never runs before a build it should cap is mapped.
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    builds = (_open_build(path) for path in _loaded_openblas_paths())
    return [build for build in builds if build is not None]


class _ThreadCap:
    """Process-wide, reentrant one-thread cap over a set of builds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: List[Tuple[BlasBuild, int]] = []
        self._builds: Optional[List[BlasBuild]] = None

    def _loaded(self) -> List[BlasBuild]:
        # Caller holds the lock; discovery runs once per process.
        if self._builds is None:
            self._builds = _discover()
        return self._builds

    def builds(self) -> List[BlasBuild]:
        with self._lock:
            return list(self._loaded())

    def enter(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = [(b, b.get_threads()) for b in self._loaded()]
                for build, _ in self._saved:
                    build.set_threads(1)
            self._depth += 1

    def exit(self) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for build, count in self._saved:
                    build.set_threads(count)
                self._saved = []


_CAP = _ThreadCap()


def blas_builds() -> List[BlasBuild]:
    """The loaded OpenBLAS builds the cap drives (empty when none)."""
    return _CAP.builds()


def blas_thread_counts() -> Dict[str, int]:
    """Current thread count of each loaded OpenBLAS build, by file name."""
    return {build.name: build.get_threads() for build in blas_builds()}


class single_blas_thread(contextlib.ContextDecorator):
    """Run the enclosed block (or decorated function) on one BLAS thread.

    Usable as ``with single_blas_thread(): ...`` or as a decorator.
    Nested and concurrent entries share one cap: the first entry sets
    every build to one thread and the last exit restores the counts
    that were set before it.
    """

    def __enter__(self) -> "single_blas_thread":
        _CAP.enter()
        return self

    def __exit__(self, *exc_info) -> None:
        _CAP.exit()
