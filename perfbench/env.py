"""Pinned, recorded run conditions.

``pin_threads`` must run before numpy is first imported: OpenBLAS and
OpenMP read their thread counts once, at library load.  One BLAS thread
is the steadier setting on small machines (two threads spread an SDXL
stand-in pass over 4.5-6.0 s; one thread keeps it within 5%).
``environment`` is printed with every run so a figure can be read
against the conditions that produced it.
"""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import threading
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
BLAS_THREADS = 1


def pin_threads() -> None:
    """Fix every BLAS/OpenMP pool of this process to ``BLAS_THREADS``."""
    for name in THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)


def _openblas_threads():
    """Threads the loaded OpenBLAS actually uses (None if not found)."""
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def _git_commit(root: Path):
    """HEAD of a git checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """sha256 over every ``.py`` file of the program under ``src/``.

    Identifies the code a run measured even where the checkout is not a
    git repository.
    """
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    import numpy as np

    from repro.tensor import backend_info

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "blas_threads": _openblas_threads(),
        "python_threads": threading.active_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "backend": backend_info(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
