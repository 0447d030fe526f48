"""Entanglement entropy of the diagonal map on the permutation-symmetric
real qutrit family.

The family is parametrized by the off-diagonal entry z in [-1/2, 1].  Pure
states compatible with a given z form a one-parameter family in an angle
theta; minimizing the diagonal output entropy over theta gives the curve
epsilon(z), whose lower convex envelope is the entanglement entropy.  The
envelope replaces epsilon by straight chords from the left endpoint to a
tangency point z*, and from 5/6 to the right endpoint.  The three cyclic
shifts of real (a, b, c) mix to the member at z = ab + bc + ca, so one
cyclic orbit, or two mixed along a chord, attain the envelope.  The
theta = 0 state is the one-vs-rest state (x, y, y): one_vs_rest_entropy(z,
N) is its output entropy in any dimension N, where the N permutations of
(x, y, ..., y) mix to omega_N(z) = ((1 - z) I + z J)/N, z in [-1/(N-1), 1].

The module also holds the curve's scalar helpers: check_z, the bisection
_bisect behind z* and the angle transition, and tangent_from_point behind
the lower chord.

Importing this module loads no numpy.  The array builders live in the
data layer, `states`; curve_grid and optimal_decomposition, which the
benchmark reads here, resolve on first access.  The standard library's
array loads only when z_grid builds a grid.
"""

import math
import sys
from functools import lru_cache, partial
from typing import NamedTuple

from . import _lazy
from .entropy import LN2, LN3, NORM_TOL, TINY, _check_dimension, _number, eta

Z_MIN = -0.5
Z_MAX = 1.0
# the default step of the curve export's grid (z_grid, curve_grid, ed-curve)
Z_STEP = 1e-3
# how far outside its range (check_z's [-1/(N-1), Z_MAX], rank2_state's
# [0, 1]) a z is still admitted, and then clamped
Z_SLACK = 1e-12

UPPER_KNEE = 5.0 / 6.0
UPPER_KNEE_VALUE = LN3 - LN2 / 3.0

TRANSITION_BRACKET = (-0.45, -0.40)
LOWER_TANGENT_BRACKET = (-0.45, -0.30)

_SQRT3 = math.sqrt(3.0)
# the round-off of the theta-slope, relative to the sum of its terms'
# magnitudes (_theta_derivatives' third value): measured at most 3.6 eps
_SLOPE_ROUNDOFF = 8.0 * sys.float_info.epsilon
# the angle solve's bracket, [0, pi/4], in u = theta^2
_U_MAX = (math.pi / 4.0) ** 2

REGION_LOWER_LINEAR = "lower_linear"
REGION_ROOF = "roof_equals_epsilon"
REGION_UPPER_LINEAR = "upper_linear"


def check_z(z: float, N: int = 3) -> float:
    """Validate z in [-1/(N-1), 1], [Z_MIN, Z_MAX] at N = 3, for a checked N."""
    z = _number(z)
    lo = -1.0 / (N - 1)
    if not lo - Z_SLACK <= z <= Z_MAX + Z_SLACK:
        raise ValueError(f"z = {z!r} outside [-1/{N - 1}, 1]")
    # min(max(z, lo), Z_MAX) as comparisons: the builtins cost more per call
    z = lo if lo > z else z
    return Z_MAX if Z_MAX < z else z


def _bisect(g, lo: float, hi: float) -> float:
    """A zero of g on [lo, hi], lo < hi, by bisection: an end or a midpoint
    where g is exactly zero, else, once the bracket is closed to adjacent
    doubles, the end of it with the smaller |g|.  Raises ValueError unless
    g(lo) and g(hi) differ in sign or one is zero (a NaN does not count),
    and when g is NaN at a midpoint."""
    glo, ghi = g(lo), g(hi)
    if not (glo <= 0.0 <= ghi or ghi <= 0.0 <= glo):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]: g = {glo!r}, {ghi!r}")
    if 0.0 in (glo, ghi):  # the loop below would bisect away from a zero at lo
        return lo if glo == 0.0 else hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(glo) <= abs(ghi) else hi
        gm = g(mid)
        if gm == 0.0:
            return mid
        if math.isnan(gm):
            raise ValueError(f"g is NaN at {mid!r} inside [{lo!r}, {hi!r}]")
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm


def tangent_from_point(f, x0: float, f0: float, bracket, *, df) -> float:
    """Abscissa t where the line through (x0, f0) touches f tangentially.

    Solves g(t) = f'(t) (t - x0) - (f(t) - f0) = 0, with f' given as df, by
    _bisect on the bracket, so t is as accurate as g.  Raises ValueError
    unless x0, f0 and the bracket (lo, hi) are finite with lo < hi, and
    when g does not change sign on the bracket or is NaN inside it.
    """
    x0, f0, lo, hi = _number(x0), _number(f0), _number(bracket[0]), _number(bracket[1])
    if not (all(map(math.isfinite, (x0, f0, lo, hi))) and lo < hi):
        raise ValueError(f"need a finite anchor and bracket lo < hi, got ({x0!r}, {f0!r}), {bracket!r}")

    def g(t: float) -> float:
        return df(t) * (t - x0) - (f(t) - f0)

    return _bisect(g, lo, hi)


class EDCurveRecord(NamedTuple):
    z: float
    epsilon: float
    theta_min: float
    ed: float
    region: str


def _alpha_beta(z: float, N: int = 3):
    # max(x, 0.0) as a comparison: the builtin costs more per call
    s, d = (N - 1) * z + 1.0, 1.0 - z
    return math.sqrt(0.0 if 0.0 > s else s), math.sqrt(0.0 if 0.0 > d else d)


def _amplitude_parts(alpha: float, x: float, y: float):
    """(a, m, d) of the state (a, b, c) = (a, m - d, m + d) at the angle
    theta, from x = beta cos theta and y = beta sin theta:
    a = (alpha + 2x)/3, m = (alpha - x)/3 and d = sqrt(3) y/3."""
    return (alpha + 2.0 * x) / 3.0, (alpha - x) / 3.0, _SQRT3 * y / 3.0


def _amplitudes(alpha: float, beta: float, theta: float):
    """The state (a, b, c) at the angle theta."""
    a, m, d = _amplitude_parts(alpha, beta * math.cos(theta), beta * math.sin(theta))
    return a, m - d, m + d


def one_vs_rest_entropy(z: float, N: int) -> float:
    """Output entropy of the one-vs-rest state of omega_N(z), z in [-1/(N-1), 1]:
    x = (alpha + (N-1) beta)/N once and y = (alpha - beta)/N N-1 times, with
    alpha = sqrt(1 + (N-1) z) and beta = sqrt(1 - z).  For z >= 0 it is
    Terhal and Vollbrecht's isotropic-state minimizer (PRL 85, 2625 (2000)).
    Raises ValueError for an N whose square passes the float range."""
    N = _check_dimension(N)
    try:
        float(N * N)
    except OverflowError:
        raise ValueError(f"N = {N} is too large: N^2 passes the float range") from None
    z = check_z(z, N)
    alpha, beta = _alpha_beta(z, N)
    # at check_z's lower end, the face point, alpha is 0, but (N-1) z + 1
    # rounds to 1.1e-16 for some N, where fl(-1/(N-1)) lies above it
    return _one_vs_rest_entropy(0.0 if z == -1.0 / (N - 1) else alpha, beta, N)


def _one_vs_rest_entropy(alpha: float, beta: float, N: int) -> float:
    # squares over N^2: the squares of x and y themselves round differently
    return (N - 1) * eta((alpha - beta) ** 2 / N**2) + eta((alpha + (N - 1) * beta) ** 2 / N**2)


def _one_vs_rest_slope(z: float, N: int) -> float:
    """d one_vs_rest_entropy / dz for z in (-1/(N-1), 1) other than 0: with
    u = (alpha-beta)^2/N^2 and v = (alpha+(N-1) beta)^2/N^2, (N-1) u + v = 1,
    so it is (N-1) u' log(v/u), u' = 2 (alpha-beta)((N-1)/(2 alpha) + 1/(2 beta))/N^2."""
    alpha, beta = _alpha_beta(z, N)
    u = (alpha - beta) ** 2 / N**2
    v = (alpha + (N - 1) * beta) ** 2 / N**2
    du = 2.0 * (alpha - beta) * (0.5 * (N - 1) / alpha + 0.5 / beta) / N**2
    return (N - 1) * du * math.log(v / u)


def _output_entropy(alpha: float, beta: float, theta: float) -> float:
    a, b, c = _amplitudes(alpha, beta, theta)
    return eta(a * a) + eta(b * b) + eta(c * c)


def _theta_derivatives(alpha: float, beta: float, theta: float):
    """The first two theta-derivatives of _output_entropy, in pair form, as
    (slope, curvature, scale).  The amplitudes are linear in (alpha, x, y),
    and d/dtheta takes (x, y) to (-y, x), so the parts' derivatives are
    _amplitude_parts(0, -y, x) and (0, -x, -y).  The slope is
    -2 a a' (log a^2 + 1) - 4 (P (L + 1) + l Q) with P = m m' + d d',
    Q = m d' + d m', L = log|bc| and l = log|c/b| = 2 atanh(d/m), so each
    term is O(theta), and the curvature is its derivative,
    -2 ((a'^2 + a a'') (log a^2 + 1) + 2 a'^2)
    - 4 (P' (L + 1) + 2 (m'^2 + d'^2) + l Q'), where P L' + l' Q = 2 (m'^2 + d'^2).
    At theta = 0 the slope is exactly zero, and each curvature term is
    O(beta): next to z = 1, where the curvature is about (4/sqrt(3)) beta^3,
    it keeps its sign.  Squares of amplitudes are floored at TINY in the
    logs.  The third value is the sum of the slope terms' magnitudes, the
    scale of the slope's round-off."""
    x, y = beta * math.cos(theta), beta * math.sin(theta)
    a, m, d = _amplitude_parts(alpha, x, y)
    da, dm, dd = _amplitude_parts(0.0, -y, x)
    dda, ddm, ddd = _amplitude_parts(0.0, -x, -y)
    b, c = m - d, m + d
    a2, b2, c2 = a * a, b * b, c * c
    log_a = math.log(TINY if TINY > a2 else a2) + 1.0
    log_b = math.log(TINY if TINY > b2 else b2)
    log_c = math.log(TINY if TINY > c2 else c2)
    log_bc = 0.5 * (log_b + log_c) + 1.0
    # log|c/b|, without the cancellation of the two logs where b and c are close
    ell = 2.0 * math.atanh(d / m) if abs(d) < 0.5 * abs(m) else 0.5 * (log_c - log_b)
    p, q = m * dm + d * dd, m * dd + d * dm
    dp, dq = dm * dm + m * ddm + dd * dd + d * ddd, 2.0 * dm * dd + m * ddd + d * ddm
    ta, tp, tq = -2.0 * a * da * log_a, -4.0 * p * log_bc, -4.0 * ell * q
    curvature = -2.0 * ((da * da + a * dda) * log_a + 2.0 * da * da) - 4.0 * (
        dp * log_bc + 2.0 * (dm * dm + dd * dd) + ell * dq
    )
    return ta + tp + tq, curvature, abs(ta) + abs(tp) + abs(tq)


def min_pure_output_entropy(z: float):
    """Minimum over theta of the output entropy at fixed z, as (value,
    theta_min) with theta_min in [0, pi/6].

    theta = 0 is stationary, and it is the minimum wherever the
    theta-curvature there (_theta_derivatives at theta = 0) is not
    negative: above theta_transition, where the value is
    one_vs_rest_entropy(z, 3).  Below it, theta_min is the one sign change
    of the slope on (0, pi/3), found on [0, pi/4] by safeguarded Newton
    steps on slope/theta in u = theta^2, each from one evaluation of
    _theta_derivatives, until the slope is round-off.  At z = -1/2 it is
    pi/6 exactly, where the amplitude c is zero.  Raises ValueError when
    the slope keeps its sign on [0, pi/4] or is NaN.
    """
    return _min_output_entropy(*_alpha_beta(check_z(z)))


def _min_output_entropy(alpha: float, beta: float):
    if beta == 0.0:
        # z = 1: the orbit degenerates to a single state
        return LN3, 0.0
    if alpha == 0.0:
        # z = -1/2: c = 0 at theta = pi/6, and (a, b) = (1, -1)/sqrt(2)
        return LN2, math.pi / 6.0
    k = _theta_derivatives(alpha, beta, 0.0)[1]
    if not k < 0.0:
        return _one_vs_rest_entropy(alpha, beta, 3), 0.0
    # Newton steps on g(u) = slope/theta in u = theta^2, which the pitchfork
    # makes nearly linear, with g(0) = k < 0, from the bracket's middle in
    # theta, or for alpha < 0.3 (z below about -0.455) from next to theta_min.
    # As z -> -1/2, theta_min tends to pi/6, where c = 0 and the slope has a
    # c log c^2 term, so steps from afar close on it only linearly; the
    # start takes (pi/6 - theta_min) beta/alpha as 0.7, which measures 0.54
    # at z = -1/2 + 1e-15, 0.76 at -1/2 + 1e-2 and 0.95 at alpha = 0.3.  A
    # step that leaves the bracket [lo, hi], or has a zero or NaN
    # derivative, bisects instead
    lo, hi = 0.0, _U_MAX
    u = (math.pi / 6.0 - 0.7 * alpha / beta) ** 2 if alpha < 0.3 else (math.pi / 8.0) ** 2
    while True:
        theta = math.sqrt(u)
        slope, curvature, scale = _theta_derivatives(alpha, beta, theta)
        if math.isnan(slope):
            raise ValueError(f"theta-slope is NaN at theta = {theta!r}")
        g = slope / theta
        if g < 0.0:
            lo = u
        else:
            hi = u
        dg = (curvature - g) / (2.0 * u)  # d/du (slope/theta)
        u = u - g / dg if dg else math.nan
        if abs(slope) <= _SLOPE_ROUNDOFF * scale:
            # the slope is round-off: take the last step unevaluated
            if lo <= u <= hi:
                theta = math.sqrt(u)
            return _output_entropy(alpha, beta, theta), theta
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
            if u in (lo, hi):  # the bracket is closed
                if hi == _U_MAX:
                    raise ValueError(f"the theta-slope keeps its sign on [0, pi/4] at alpha, beta = {alpha!r}, {beta!r}")
                return _output_entropy(alpha, beta, theta), theta


def theta_transition() -> float:
    """Largest z at which the minimizing angle departs from zero: the zero of
    the theta-curvature at theta = 0 (_theta_derivatives), located by
    _bisect on TRANSITION_BRACKET.  The transition is a pitchfork:
    below it the curvature is negative and theta_min grows like
    sqrt(z_t - z)."""
    return _bisect(lambda z: _theta_derivatives(*_alpha_beta(z), 0.0)[1], *TRANSITION_BRACKET)


@lru_cache(maxsize=1)
def lower_tangent_z() -> float:
    """Tangency abscissa z* of the chord anchored at (-1/2, log 2) against
    the theta = 0 entropy curve, one_vs_rest_entropy at N = 3."""
    f, df = partial(one_vs_rest_entropy, N=3), partial(_one_vs_rest_slope, N=3)
    return tangent_from_point(f, Z_MIN, LN2, LOWER_TANGENT_BRACKET, df=df)


def _piece(z: float):
    """The curve's piece at a checked z as (region, points): it mixes the
    orbits of the states at (z_end, theta) of its points (weight, z_end,
    theta, value), with weights summing to 1 and output entropies value.
    A value None is one_vs_rest_entropy(z_end, 3), left to _envelope, so that
    optimal_decomposition does not evaluate it."""
    zstar = lower_tangent_z()
    if z < zstar:
        p = (zstar - z) / (zstar - Z_MIN)
        return REGION_LOWER_LINEAR, ((p, Z_MIN, math.pi / 6.0, LN2), (1.0 - p, zstar, 0.0, None))
    if z <= UPPER_KNEE:
        return REGION_ROOF, ((1.0, z, 0.0, None),)
    p = (Z_MAX - z) / (Z_MAX - UPPER_KNEE)
    return REGION_UPPER_LINEAR, ((p, UPPER_KNEE, 0.0, UPPER_KNEE_VALUE), (1.0 - p, Z_MAX, 0.0, LN3))


def _envelope(points) -> float:
    """The weighted output entropy of a piece's points."""
    return sum(w * (_one_vs_rest_entropy(*_alpha_beta(z_end), 3) if v is None else v) for w, z_end, _, v in points)


def entanglement_entropy(z: float) -> float:
    """The piecewise closed form for the entanglement entropy at z."""
    _, points = _piece(check_z(z))
    return _envelope(points)


def curve_record(z: float) -> EDCurveRecord:
    """Full per-z record: epsilon, minimizing angle, envelope value, region.
    On the roof [z*, 5/6] the theta-curvature at 0 is positive (at least
    0.11), so epsilon is the theta = 0 entropy, which is also E: one
    evaluation serves both."""
    z = check_z(z)
    alpha, beta = _alpha_beta(z)
    region, points = _piece(z)
    if region == REGION_ROOF:
        value = _one_vs_rest_entropy(alpha, beta, 3)
        return EDCurveRecord(z, value, 0.0, value, region)
    return EDCurveRecord(z, *_min_output_entropy(alpha, beta), _envelope(points), region)


def _rank2_parameters(z, x, a, b):
    """rank2_state's (z, x, a, b), checked: a, b and x as complex numbers,
    z as a float clamped to [0, 1].  Raises unless |a|^2 + |b|^2 = 1,
    0 <= z <= 1 and |x|^2 <= z(1-z), which together make the matrix a
    valid density matrix."""
    a, b, x = (_number(v, complex) for v in (a, b, x))
    if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= NORM_TOL:
        raise ValueError("amplitudes must satisfy |a|^2 + |b|^2 = 1")
    z = _number(z)
    if not -Z_SLACK <= z <= 1.0 + Z_SLACK:
        raise ValueError(f"z = {z!r} outside [0, 1]")
    z = min(max(z, 0.0), 1.0)
    if not abs(x) ** 2 <= z * (1.0 - z) + 1e-12:
        raise ValueError("|x|^2 exceeds z(1-z); matrix would not be positive")
    return z, x, a, b


def rank2_entanglement(z: float, x: complex, a: complex, b: complex) -> float:
    """Closed-form entanglement entropy of rank2_state(z, x, a, b)."""
    z, x, a, b = _rank2_parameters(z, x, a, b)  # z clamped to [0, 1], as rank2_state's
    lam = math.sqrt(max(1.0 - 4.0 * abs(x) ** 2, 0.0))
    val = eta((1.0 + lam) / 2.0) + eta((1.0 - lam) / 2.0)
    val += z * eta(abs(a) ** 2) + z * eta(abs(b) ** 2)
    return val


def z_grid(z_min: float = Z_MIN, z_max: float = Z_MAX, z_step: float = Z_STEP) -> "array":
    """Inclusive evaluation grid of the curve export, as an array('d'):
    z_min + z_step*k for k = 0, 1, ..., clipped to [-1/2, 1].  A step that
    asks for more points than an index can count raises ValueError.  The
    array is allocated in one piece before it is filled, so a step too fine
    to fit in memory raises MemoryError at once."""
    if not 0.0 < z_step < math.inf:
        raise ValueError(f"z_step must be positive and finite, got {z_step!r}")
    if not (z_min < z_max):
        raise ValueError("need z_min < z_max")
    check_z(z_min)
    check_z(z_max)
    steps = (z_max - z_min) / z_step + 1e-9
    if not steps < sys.maxsize:
        raise ValueError(f"z_step = {z_step!r} is too fine for [{z_min!r}, {z_max!r}]")
    count = int(math.floor(steps)) + 1
    from array import array

    try:
        zs = array("d", [0.0]) * count
    except MemoryError:  # raised without a message
        raise MemoryError(f"z_step = {z_step!r} asks for {count} grid points, too many to allocate") from None
    for k in range(count):
        z = z_min + z_step * k
        zs[k] = Z_MIN if Z_MIN > z else Z_MAX if Z_MAX < z else z
    return zs


__getattr__, __dir__ = _lazy.lazy_names(globals(), {".states": ("curve_grid", "optimal_decomposition")})
