"""Exact-arithmetic verification lab for depth-zero cover character
formulas on the elliptic unramified tori of PGSp(4)."""

import atexit
import gc
import os

# Every check computes on int64 arrays, which numpy multiplies without BLAS,
# so the OpenBLAS worker pool that ``import numpy`` starts only burns CPU;
# OpenBLAS reads this once, when numpy loads it, and reads an empty value as
# unset, so an empty value is pinned too.  Any other explicit value wins.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# At exit, move every live object into the permanent generation, so the
# collections of interpreter shutdown neither walk nor free the module-level
# cycles of numpy, the stdlib and the package, memory the OS takes back
# anyway.  Streams are still flushed; objects in cycles alive at exit are
# not finalized, which Python does not promise anyway.
atexit.register(gc.freeze)

__version__ = "0.1.0"
