"""Helpers shared by every workload: spans, percentiles, environment.

Nothing here imports the program under test, so the unit tests of the
benchmark itself run without it.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Variables that change how many threads the program's BLAS or worker
#: pools use. The benchmark records them and never sets them: the
#: program is measured as a user would run it.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "REPRO_MAX_WORKERS",
    "REPRO_POSTERIOR_SOLVER",
    "REPRO_TASK_TIMEOUT",
)

#: Fewest samples that must lie beyond a reported tail percentile.
MIN_TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval at a layer boundary."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; written out once, when the run ends.

    A disabled tracer still runs the timed body but records nothing, so
    the same workload code serves the untraced and the traced run.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
    ) -> Optional[int]:
        """Record a finished interval; returns its id (None if disabled)."""
        if not self.enabled:
            return None
        span = Span(len(self.spans), name, start, end, parent, request)
        self.spans.append(span)
        return span.id

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        """Time the body as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    parent, request)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name (see :func:`self_times`)."""
        return self_times(self.spans)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-name self time: a span's duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so concurrent children never drive a
    parent's self time below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    out: Dict[str, float] = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if min(end, span.end) > max(start, span.start)
        ]
        own = span.duration - _covered(clipped)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1] (numpy's default)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def has_tail(n: int, percentile: float) -> bool:
    """Whether ``n`` samples leave >= 10 beyond the ``percentile``."""
    return n * (100.0 - percentile) / 100.0 >= MIN_TAIL_SAMPLES


def tail(values: Sequence[float], percentile: float) -> float:
    """The ``percentile`` quantile, refusing one with < 10 samples beyond."""
    if not has_tail(len(values), percentile):
        beyond = len(values) * (100.0 - percentile) / 100.0
        raise ValueError(
            f"p{percentile:g} of {len(values)} samples has only "
            f"{beyond:.1f} beyond it (need {MIN_TAIL_SAMPLES})"
        )
    return quantile(values, percentile / 100.0)


@contextmanager
def gc_paused():
    """Collect, then keep the collector out of the timed region."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: GIL switch interval while load-generator threads run. At Python's
#: default of 5 ms, a thread waking on schedule can wait that long for
#: a sibling that is decoding a reply, and the wait shows up as
#: generator lag in every request it sends.
LOAD_SWITCH_INTERVAL_S = 1e-4


@contextmanager
def load_phase():
    """``gc_paused`` plus a short GIL switch interval for generator threads."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(LOAD_SWITCH_INTERVAL_S)
    try:
        with gc_paused():
            yield
    finally:
        sys.setswitchinterval(previous)


# ----------------------------------------------------------------------
# Environment and process memory.
# ----------------------------------------------------------------------
def _blas_info() -> Dict[str, str]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")),
                "version": str(blas.get("version"))}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def environment() -> Dict[str, object]:
    """What the program ran on: cores, BLAS, thread variables, versions."""
    import numpy as np

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "blas": _blas_info(),
        "thread_vars": {
            name: os.environ.get(name, "unset") for name in THREAD_VARS
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_user_cpu_s(pid: int) -> float:
    """User-mode CPU seconds a process has used; 0 if it is gone.

    System time is left out on purpose: the kernel's share of a
    request (wake-ups, scheduling) moved with the host's load far more
    than the program's own work did.
    """
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return int(fields[11]) / os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> Dict[int, str]:
    """Live descendant pids of ``pid`` with their command lines."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat.rsplit(")", 1)[1].split()
        parents[int(entry)] = int(fields[1])
    found: Dict[int, str] = {}
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for child, parent in parents.items():
            if parent == current and child not in found:
                found[child] = _cmdline(child)
                frontier.append(child)
    return found


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


#: prctl(2) option: orphaned descendants are re-parented to the caller.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt every orphaned descendant, so each can be waited for.

    The server's shards and its multiprocessing resource tracker outlive
    the gateway by a moment; without this they would be re-parented to
    the host's init, which need not reap them. Linux only; elsewhere a
    no-op that returns False.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_children(grace: float = 10.0) -> List[str]:
    """Wait for every child process to end; kill those still alive after
    ``grace`` seconds. Returns the killed ones (pid and command line).

    This process's own multiprocessing resource tracker (started by an
    in-process cluster) is stopped first: it only ends when told to.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    killed: List[str] = []
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.05)
            continue
        for child, cmd in descendants(os.getpid()).items():
            try:
                os.kill(child, signal.SIGKILL)
                killed.append(f"{child} {cmd}")
            except ProcessLookupError:
                pass
        deadline = float("inf")
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return killed


def alive(pid: int) -> bool:
    """True when ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


# ----------------------------------------------------------------------
# What a workload hands back to the runner.
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Native measurements of one run, before the runner fills the rest.

    ``metrics`` holds the end-to-end metrics the workload exercises,
    ``layers`` the per-layer metrics (traced runs only), ``failures``
    one line per failed check or operation.
    """

    attempted: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)
