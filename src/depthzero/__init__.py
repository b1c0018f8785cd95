"""Exact-arithmetic verification lab for depth-zero cover character
formulas on the elliptic unramified tori of PGSp(4)."""

import os

# Every check computes on int64 arrays, which numpy multiplies without BLAS,
# so the OpenBLAS worker pool that ``import numpy`` starts only burns CPU;
# OpenBLAS reads this once, when numpy loads it.  An explicit value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
