"""Run environment: the refusal rules, the environment block, tree RSS."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import threading
from pathlib import Path

import numpy as np

#: each of these changes the program measured: tracing off, lock
#: instrumentation on, or a BLAS thread count other than the default
#: that users get
REFUSED_VARS = ("REPRO_NO_TRACE", "REPRO_LOCKWATCH", "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "GOTO_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def refused_vars(environ=None) -> list[str]:
    """The refused variables set (non-empty) in ``environ``."""
    environ = os.environ if environ is None else environ
    return [v for v in REFUSED_VARS if environ.get(v, "") != ""]


def _openblas(name: str):
    """``name`` from numpy's bundled OpenBLAS (any symbol suffix), or None."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                    f"openblas_{name}"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return fn
    return None


def _blas() -> dict:
    """BLAS vendor, version and thread count from numpy's bundled library."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    get = _openblas("get_num_threads")
    if get is not None:
        get.argtypes = []
        get.restype = ctypes.c_int
    return {"name": cfg.get("name"), "version": cfg.get("version"),
            "threads": None if get is None else int(get())}


def set_blas_threads(n: int) -> None:
    """Set the bundled OpenBLAS thread count (a no-op without OpenBLAS)."""
    fn = _openblas("set_num_threads")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(n)


def _mem_total_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def _git_sha(root: Path) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, **extra) -> dict:
    """The environment block printed with every result."""
    return {"nproc": os.cpu_count(), "mem_total_mb": round(_mem_total_mb()),
            "blas": _blas(), "numpy": np.__version__,
            "python": platform.python_version(), "git_sha": _git_sha(root),
            **extra}


def _rss_kb(pid: int, field: str = "VmRSS") -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    """Direct children of ``pid``, found by scanning ``/proc``."""
    kids = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                text = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        fields = text[text.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            kids.append(int(stat.split("/")[2]))
    return kids


def tree_rss_mb(exclude=frozenset()) -> float:
    """Current RSS of this process and its descendants, in MiB.

    Processes in ``exclude`` and their descendants are left out.
    """
    todo = [os.getpid()]
    total = 0
    while todo:
        pid = todo.pop()
        total += _rss_kb(pid)
        todo.extend(k for k in _children(pid) if k not in exclude)
    return total / 1024.0


class PeakRSS:
    """Samples the process tree's RSS on a thread; ``stop`` returns the peak.

    ``RUSAGE_CHILDREN`` only counts children that have exited, so spawned
    fleet workers are read from ``/proc`` while they run.  The parent's own
    high-water mark (``VmHWM``) also enters the peak, so a spike between
    two samples of a single-process workload is not missed.
    """

    def __init__(self, period_s: float = 0.02, with_children: bool = False,
                 exclude=frozenset()):
        self.period_s = period_s
        self.with_children = with_children
        self.exclude = frozenset(exclude)
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="perfbench-rss", daemon=True)
        self._thread.start()

    def _sample(self) -> float:
        if self.with_children:
            return tree_rss_mb(self.exclude)
        return _rss_kb(os.getpid()) / 1024.0

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, self._sample())
            self._stop.wait(self.period_s)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        hwm = _rss_kb(os.getpid(), "VmHWM") / 1024.0
        return max(self.peak_mb, self._sample(), hwm)
