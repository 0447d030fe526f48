"""Real branches of the Lambert W function.

W(x) solves w * exp(w) = x.  For x >= -1/e the principal branch W0 takes
values >= -1; for -1/e <= x < 0 the secondary branch W-1 takes values <= -1.
Initial guesses (branch-point series near -1/e, log-based asymptotics
elsewhere) are refined by Halley iteration.
"""

import math

BRANCH_POINT = -math.exp(-1.0)

_MAX_ITER = 30
_STEP_TOL = 1e-15
# Below this distance (in the series variable p) from the branch point the
# truncated series is already accurate to ~1e-20; Halley would divide by a
# vanishing derivative there.
_SERIES_CUTOFF = 1e-4


def _branch_series(p: float) -> float:
    # Expansion of W about the branch point; p = +/- sqrt(2(1 + e*x)).
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))


def _halley(x: float, w: float) -> float:
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        dw = f / denom
        w -= dw
        if abs(dw) < _STEP_TOL * (1.0 + abs(w)):
            break
    return w


def lambert_w0(x: float) -> float:
    """Principal real branch W0(x), defined for finite x >= -1/e."""
    if not BRANCH_POINT <= x < math.inf:
        if BRANCH_POINT - 1e-15 < x < BRANCH_POINT:
            x = BRANCH_POINT
        else:
            raise ValueError(f"lambert_w0 argument {x!r} outside [-1/e, inf)")
    if x == 0.0:
        return 0.0
    p = math.sqrt(max(2.0 * (1.0 + math.e * x), 0.0))
    if p < _SERIES_CUTOFF:
        return _branch_series(p)
    if x < -0.25:
        w = _branch_series(p)
    elif x < 2.0:
        # crude but inside the Halley basin
        w = math.log1p(x) if x > -0.2 else x
    else:
        l1 = math.log(x)
        w = l1 - math.log(l1)
    return _halley(x, w)


def lambert_wm1(x: float) -> float:
    """Secondary real branch W-1(x), defined for -1/e <= x < 0."""
    if not x < 0.0:
        raise ValueError(f"lambert_wm1 argument {x!r} not negative")
    if x < BRANCH_POINT:
        if x > BRANCH_POINT - 1e-15:
            x = BRANCH_POINT
        else:
            raise ValueError(f"lambert_wm1 argument {x!r} below -1/e")
    p = -math.sqrt(max(2.0 * (1.0 + math.e * x), 0.0))
    if -p < _SERIES_CUTOFF:
        return _branch_series(p)
    if x < -0.25:
        w = _branch_series(p)
    else:
        l1 = math.log(-x)
        w = l1 - math.log(-l1)
    return _halley(x, w)
