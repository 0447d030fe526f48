"""Pieces shared by the roof and face-minimum searches: the angle scan that
brackets each line search, the vectorized golden-section search that
refines it, and the checks of their seed and budgets.

The symmetric-curve angle minimization takes only INVPHI: it keeps its own
scalar loop, whose stopping rule and bracket differ from golden_vec's fixed
step count, so routing it through golden_vec would change its results.
"""

import math
import operator

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# The 24-point angle scan over [-pi, pi); a search refines its best point
# by golden_vec on the bracket of one SCAN_STEP on either side.
SCAN = np.linspace(-math.pi, math.pi, 24, endpoint=False)
SCAN_STEP = SCAN[1] - SCAN[0]


def golden_vec(obj, lo, hi, iters: int = 45) -> np.ndarray:
    """Vectorized golden-section minimization on per-row brackets."""
    c = hi - INVPHI * (hi - lo)
    d = lo + INVPHI * (hi - lo)
    fc = obj(c)
    fd = obj(d)
    for _ in range(iters):
        shrink_right = fc < fd
        hi = np.where(shrink_right, d, hi)
        lo = np.where(shrink_right, lo, c)
        c_new = hi - INVPHI * (hi - lo)
        d_new = lo + INVPHI * (hi - lo)
        probe = np.where(shrink_right, c_new, d_new)
        fp = obj(probe)
        c_next = np.where(shrink_right, c_new, d)
        fc_next = np.where(shrink_right, fp, fd)
        d_next = np.where(shrink_right, c, d_new)
        fd_next = np.where(shrink_right, fc, fp)
        c, d, fc, fd = c_next, d_next, fc_next, fd_next
    return 0.5 * (lo + hi)


def check_seed(seed) -> int:
    """An integer seed in [0, 2^64), the range of a Philox key word."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    return seed


def check_count(name: str, value) -> int:
    """A search budget (restarts, sweeps): an integer of at least 1."""
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value
