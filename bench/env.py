"""Process environment of a benchmark run.  Imports nothing heavy: the
thread pins must be in ``os.environ`` before numpy loads its BLAS."""

from __future__ import annotations

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"

#: One BLAS thread per rank: an un-pinned OpenBLAS made a 2-rank
#: ``processes`` training run 3.4x slower on 2 cores (ranks x threads >
#: cores).  ``REPRO_GEMM_THREADS`` is deliberately left alone.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Keep freed arrays inside the process heap (no mmap/munmap per array).
#: The reference VM reports free guest pages back to its host after ~2 s
#: and a first touch of such a page costs ~6 s/GiB, so with the default
#: allocator the training workloads — which allocate and free hundreds
#: of MB per step — spread by 35% run to run (pipeline_euler64 6.2-16.9 s
#: per operation) and no 10% bound can be checked.  Pinned, the same
#: operation reads 5.7-6.0 s.  What this hides is named in the README.
ALLOCATOR_ENV = {
    "GLIBC_TUNABLES": "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=68719476736",
}


def pin_threads() -> None:
    """Pin BLAS/OpenMP to one thread (rank processes inherit it)."""
    os.environ.update(PINNED_ENV)


def pin_allocator() -> None:
    """Re-execute this interpreter under ``ALLOCATOR_ENV`` — malloc reads
    its tunables once, at process start."""
    if all(os.environ.get(key) == value for key, value in ALLOCATOR_ENV.items()):
        return
    os.environ.update(ALLOCATOR_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the program in *this* tree, so a checkout
    without ``src/repro`` is an error, never a fallback to an installed
    copy.
    """
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: {package} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
