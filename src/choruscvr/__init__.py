"""Entire-space debiased conversion-rate modeling toolkit.

Negative-sample discrimination plus mutual soft alignment on top of a
click/conversion funnel, with a numpy model whose forward and backward
passes are written out layer by layer, a synthetic funnel simulator
with counterfactual ground truth, and an evaluation harness for
bias-aware offline metrics.

Importing the package pins BLAS to one thread (unless the environment
already sets the thread variables): the model's matrices are small, so
more threads only cost time, and ``compare`` runs one process per seed.
The pin acts only if numpy is not loaded yet; ``BLAS_PINNED`` records
whether BLAS runs one thread, and ``compare`` uses its process pool
only then.
"""

import os
import sys

__version__ = "0.1.0"

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_already_one = all(os.environ.get(var) == "1" for var in _BLAS_THREAD_VARS)
_numpy_loaded = "numpy" in sys.modules
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
BLAS_PINNED = _already_one or (
    not _numpy_loaded and all(os.environ[var] == "1" for var in _BLAS_THREAD_VARS)
)
