"""Suite-wide test settings.

Property tests run a fixed, derandomized set of examples with no
per-example deadline, so every run draws the same cases and a slow
machine cannot turn a pass into a flaky failure.
"""

from hypothesis import settings

settings.register_profile("choruscvr", derandomize=True, deadline=None, database=None)
settings.load_profile("choruscvr")
