"""The package's one numpy import: a module that uses numpy (only
``netsim``; the analytic modules use none) takes ``np`` from here.

Unless the caller has set ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``, or has imported numpy already, numpy is imported with
OpenBLAS pinned to one thread, and ``os.environ`` is then restored as it
was, so child processes that the caller starts are left alone.
"""

import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_PIN = "numpy" not in sys.modules and not any(v in os.environ
                                               for v in _THREAD_VARS)
if _PIN:  # OpenBLAS sizes its thread pool once, when numpy loads it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np  # noqa: F401  (the name the package imports)
finally:
    if _PIN:
        del os.environ["OPENBLAS_NUM_THREADS"]
