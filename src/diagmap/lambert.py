"""Real branches of the Lambert W function.

W(x) solves w * exp(w) = x.  For x >= -1/e the principal branch W0 takes
values >= -1; for -1/e <= x < 0 the secondary branch W-1 takes values <= -1.
Initial guesses (branch-point series near -1/e, log-based asymptotics
elsewhere) are refined by Halley iteration.  The branch-point series is
that of Corless et al., "On the Lambert W function", Adv. Comput. Math. 5,
329 (1996).
"""

import math

BRANCH_POINT = -math.exp(-1.0)
# BRANCH_POINT + 1/e: the double lies this far below -1/e
_BRANCH_POINT_ROUNDING = -1.2428753672788363e-17

_MAX_ITER = 30
_STEP_TOL = 1e-15
# Below this |x| exp(W-1(x)) = x / W-1(x) nears the subnormal range and loses
# bits (at x = -5e-324 it is 0), so W-1 is refined on w + log(-w) = log(-x).
_LOG_FORM_BELOW = 1e-300
# Below this |p| the series through p^8 is within 1.2e-16 relative of W;
# beyond it Halley's steps, round-off of relative size eps/|p|, refine the
# series start.
_SERIES_CUTOFF = 3e-2


def _branch_p(x: float) -> float:
    """|p| = sqrt(2(1 + e x)) for x >= BRANCH_POINT.  1 + e x cancels near
    the branch point, so it is taken as e (x + 1/e): x - BRANCH_POINT is
    exact there and the rounding of BRANCH_POINT is added back."""
    return math.sqrt(max(2.0 * math.e * ((x - BRANCH_POINT) + _BRANCH_POINT_ROUNDING), 0.0))


# coefficients of the expansion of W about the branch point in
# p = +/- _branch_p(x), through p^8, highest power first
_SERIES = (
    -1963.0 / 204120.0,
    680863.0 / 43545600.0,
    -221.0 / 8505.0,
    769.0 / 17280.0,
    -43.0 / 540.0,
    11.0 / 72.0,
    -1.0 / 3.0,
    1.0,
    -1.0,
)


def _branch_series(p: float) -> float:
    w = 0.0
    for c in _SERIES:
        w = w * p + c
    return w


def _halley(x: float, w: float, log_form: bool = False) -> float:
    last = math.inf
    for _ in range(_MAX_ITER):
        if log_form:  # Newton on w + log(-w) = log(-x), which takes no exp
            dw = (w + math.log(-w) - math.log(-x)) / (1.0 + 1.0 / w)
        else:
            ew = math.exp(w)
            f = w * ew - x
            dw = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0)))
        if not abs(dw) < last:
            # a step no shorter than the last is round-off, which can
            # alternate between two neighbouring points: keep this one
            break
        w -= dw
        if abs(dw) < _STEP_TOL * (1.0 + abs(w)):
            break
        last = abs(dw)
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
    p = _branch_p(x)
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
    p = -_branch_p(x)
    if -p < _SERIES_CUTOFF:
        return _branch_series(p)
    if x < -0.25:
        w = _branch_series(p)
    else:
        l1 = math.log(-x)
        w = l1 - math.log(-l1)
    return _halley(x, w, x > -_LOG_FORM_BELOW)
