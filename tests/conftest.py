"""Suite-wide test settings.

Property tests run a fixed, derandomized set of examples with no
per-example deadline, so every run draws the same cases and a slow
machine cannot turn a pass into a flaky failure.

The package is imported before anything loads numpy, so its one-thread
BLAS pin takes effect and ``compare`` runs its seeds in worker
processes, as it does from the command line.
"""

import choruscvr  # noqa: F401  (first: pins BLAS threads before numpy loads)
from hypothesis import settings

settings.register_profile("choruscvr", derandomize=True, deadline=None, database=None)
settings.load_profile("choruscvr")
