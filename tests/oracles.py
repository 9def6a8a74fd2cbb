"""Reference estimators the acceptance and objective tests check against."""

import numpy as np


def ipw_mean(values: np.ndarray, mask: np.ndarray, propensity: np.ndarray, floor: float = 0.01) -> float:
    """Inverse-propensity estimate of the population mean of ``values``
    from only the samples where ``mask`` is 1.

    It divides by the number of all samples. The training objective's
    click-space terms divide by the number of masked samples instead, so
    they estimate this mean divided by the mask rate.
    """
    w = np.asarray(mask, dtype=np.float64) / np.maximum(propensity, floor)
    return float(np.mean(w * values))
