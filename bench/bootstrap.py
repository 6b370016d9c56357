"""Point the interpreter at the checkout's sources and pin the thread count.

``run.py`` and ``probe.py`` call :func:`prepare` before anything imports
numpy, so the BLAS/OpenMP pools start with ``THREADS`` threads and
``starpinch`` is imported from ``src/`` of this checkout, never from an
installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# one thread per numerical library, within the 2 cores of the reference
# machine: most of the work is elementwise NumPy and Python, which runs on
# one thread whatever the setting
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def prepare() -> None:
    """Fix the thread count and make ``import starpinch`` resolve to SRC."""
    if not (SRC / "starpinch" / "__init__.py").is_file():
        raise SystemExit(f"bench: no starpinch sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    import starpinch

    if Path(starpinch.__file__).resolve().parent != SRC / "starpinch":
        raise SystemExit(f"bench: starpinch imported from {starpinch.__file__}, not {SRC}")
