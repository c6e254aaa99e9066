"""The run facts that decide a timing, and the rule for comparing results.

Two results are comparable only when every fact except the program's own
identity (``git_sha``, ``src_digest``) is equal: usable cores, the thread
count each bundled OpenBLAS copy actually runs with, the ``OPENBLAS_*`` /
``OMP_*`` environment, interpreter and library versions, backend and dtype.
The benchmark never pins BLAS threads itself; it measures the program at
its defaults and records what those defaults came to.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List

#: facts that identify the program under test rather than the conditions
IDENTITY_FACTS = ("git_sha", "src_digest")

#: symbols reporting the effective thread count of the OpenBLAS copies
#: bundled with numpy (64-bit interface) and scipy
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads")


class FactsDiffer(ValueError):
    """Two results were measured under different run facts."""


def refuse_repro_env(environ=None) -> None:
    """Raise when any ``REPRO_*`` variable would change the program's defaults."""
    environ = os.environ if environ is None else environ
    names = sorted(k for k in environ if k.startswith("REPRO_"))
    if names:
        raise SystemExit(
            f"refusing to run: {', '.join(names)} set; the benchmark measures "
            f"the program at its defaults"
        )


def blas_threads() -> Dict[str, int]:
    """Effective thread count of every OpenBLAS copy loaded in this process.

    Read through ctypes because threadpoolctl is not a dependency.  Call
    after numpy and scipy.linalg are imported, so both copies are loaded.
    """
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path):
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def cpu_jiffies():
    """``(steal, total)`` CPU time of the machine so far, or ``None``.

    On a shared virtual machine the hypervisor's steal time stalls every
    thread of the program; the share of it during a run is reported next
    to the result (it is a condition of the run, not a fixed fact).
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after):
    """Share of CPU time stolen between two :func:`cpu_jiffies` readings."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path):
    """The checked-out commit, or ``None`` outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def collect(root: Path) -> dict:
    """The run facts of this process (numpy, scipy and repro imported)."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS copy)

    from repro.backend import default_backend

    backend = default_backend()
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_"))},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend.name,
        "dtype": backend.dtype_name,
        "git_sha": git_sha(root),
        "src_digest": source_digest(root),
    }


def differences(a: dict, b: dict) -> List[str]:
    """Names of the comparability facts on which ``a`` and ``b`` differ."""
    keys = (set(a) | set(b)) - set(IDENTITY_FACTS)
    return sorted(k for k in keys if a.get(k) != b.get(k))


def check_comparable(a: dict, b: dict) -> None:
    """Raise :class:`FactsDiffer` unless ``a`` and ``b`` may be compared."""
    diff = differences(a, b)
    if diff:
        detail = "; ".join(f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in diff)
        raise FactsDiffer(f"results measured under different facts: {detail}")
