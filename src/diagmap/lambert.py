"""Real branches of the Lambert W function.

W(x) solves w * exp(w) = x.  For x >= -1/e the principal branch W0 takes
values >= -1; for -1/e <= x < 0 the secondary branch W-1 takes values <= -1.
Next to -1/e the branch-point series of Corless et al., Adv. Comput. Math.
5, 329 (1996), is W.  Everywhere else W is a start plus two exp-free steps
of Fritsch, Shafer & Crowley, Commun. ACM 16, 123 (1973), which reach
double precision with no convergence loop (Veberič, Comput. Phys. Commun.
183, 2622 (2012)), also where w exp(w) overflows or exp(w) is subnormal.
The start is the branch-point series for W0 at x < -0.25 and W-1 at
|p| <= 0.6, Winitzki's approximation for W0 beyond, and the asymptotic
series for W-1 beyond.
"""

import math

BRANCH_POINT = -math.exp(-1.0)
# BRANCH_POINT + 1/e: the double lies this far below -1/e
_BRANCH_POINT_ROUNDING = -1.2428753672788363e-17

# arguments this far below -1/e are round-off and taken as -1/e
_DOMAIN_SLACK = 1e-15
# Below this |p| the series through p^8 is within 1.2e-16 relative of W;
# beyond it the series is a start for Fritsch steps, whose round-off is
# eps/|p| relative, as is W's conditioning there.
_SERIES_CUTOFF = 3e-2
# beyond this |p| (x > -0.302) W-1 starts from its asymptotic series
_ASYMPTOTIC_P = 0.6
# fdlibm's ln 2 = _LN2_HI + _LN2_LO: k * _LN2_HI is exact for |k| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _branch_p(x: float) -> float:
    """|p| = sqrt(2(1 + e x)) for x >= BRANCH_POINT.  1 + e x cancels near
    the branch point, so it is taken as e (x + 1/e): x - BRANCH_POINT is
    exact there and the rounding of BRANCH_POINT is added back."""
    t = 2.0 * math.e * ((x - BRANCH_POINT) + _BRANCH_POINT_ROUNDING)
    return math.sqrt(0.0 if 0.0 > t else t)  # max(t, 0.0), which costs more per call


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


def _fritsch(w: float, z: float) -> float:
    """w after one Fritsch step, given its z = log(x / w) - w (0 at W(x))."""
    q = 2.0 * (1.0 + w) * (1.0 + w + 2.0 * z / 3.0)
    return w + w * (z / (1.0 + w) * (q - z) / (q - 2.0 * z))


def _accurate_residual(x: float, w: float) -> float:
    """z = log(x / w) - w to about eps, not eps (1 + |w|): log(s) - (w - k ln 2)
    with k the integer nearest w / ln 2 and s = x 2^-k / w in [0.7, 1.4],
    plus the rounding of s, from Dekker's exact product s w = p + e."""
    k = math.floor(w / _LN2_HI + 0.5)
    xk = math.ldexp(x, -k)
    s = xk / w
    p = s * w
    c = 134217729.0 * s  # Veltkamp's split into 26-bit halves
    sh = c - (c - s)
    c = 134217729.0 * w
    wh = c - (c - w)
    e = ((sh * wh - p) + sh * (w - wh) + (s - sh) * wh) + (s - sh) * (w - wh)
    return math.log(s) + ((xk - p) - e) / xk - ((w - k * _LN2_HI) - k * _LN2_LO)


def _refine(x: float, w: float) -> float:
    """Two Fritsch steps from the start w: the first on the plain z, the
    last on the accurate one for x < 0.  The plain z leaves W within
    2.2e-16 relative for x > 0."""
    w = _fritsch(w, math.log(x / w) - w)
    return _fritsch(w, math.log(x / w) - w if x > 0.0 else _accurate_residual(x, w))


def lambert_w0(x: float) -> float:
    """Principal real branch W0(x), defined for finite x >= -1/e."""
    if not BRANCH_POINT <= x < math.inf:
        if BRANCH_POINT - _DOMAIN_SLACK < x < BRANCH_POINT:
            x = BRANCH_POINT
        else:
            raise ValueError(f"lambert_w0 argument {x!r} outside [-1/e, inf)")
    if x == 0.0:
        return 0.0
    if x >= -0.25:
        L = math.log1p(x)
        return _refine(x, L * (1.0 - math.log1p(L) / (2.0 + L)))  # Winitzki's start
    p = _branch_p(x)
    if p < _SERIES_CUTOFF:
        return _branch_series(p)
    return _refine(x, _branch_series(p))


def lambert_wm1(x: float) -> float:
    """Secondary real branch W-1(x), defined for -1/e <= x < 0."""
    if not x < 0.0:
        raise ValueError(f"lambert_wm1 argument {x!r} not negative")
    if x < BRANCH_POINT:
        if x > BRANCH_POINT - _DOMAIN_SLACK:
            x = BRANCH_POINT
        else:
            raise ValueError(f"lambert_wm1 argument {x!r} below -1/e")
    p = -_branch_p(x)
    if -p < _SERIES_CUTOFF:
        return _branch_series(p)
    if -p <= _ASYMPTOTIC_P:
        return _refine(x, _branch_series(p))
    l1 = math.log(-x)
    l2 = math.log(-l1)
    w = l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1)
    # log(-x) - log(-w), as x / w = exp(w) would be subnormal or 0 near x = 0
    w = _fritsch(w, l1 - math.log(-w) - w)
    return _fritsch(w, _accurate_residual(x, w))
