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

The module also holds the curve's scalar helpers: check_z, its one root
finder _bisect, and tangent_from_point behind the lower chord.

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

_PI_3 = math.pi / 3.0

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


# Newton steps may fall this many halvings behind bisection before _bisect
# takes bisection steps to catch up.
_NEWTON_GRACE = 16


def _bisect(g, lo: float, hi: float, gdg=None) -> float:
    """A zero of g on [lo, hi], lo < hi: an end or an iterate where g is
    exactly zero, else, once the bracket is closed to adjacent doubles, the
    end of it with the smaller |g|.  Raises ValueError unless g(lo) and g(hi)
    differ in sign or one is zero (a NaN does not count), and when g is NaN
    at an iterate.

    Without gdg every step bisects.  With gdg, which maps t to the pair
    (g(t), g'(t)) in one evaluation, the iterates are evaluated by gdg (the
    ends still by g), and each step after the first is a Newton step from
    the last iterate, which is an end of the bracket, safeguarded as in
    rtsafe (Numerical Recipes section 9.4): a step that leaves the bracket,
    or a zero or NaN derivative, bisects instead, and so does every step
    while the bracket is wider than bisection, _NEWTON_GRACE steps behind,
    would have left it.  A step shorter than the spacing of doubles goes to
    the next double toward the far end instead, so that end closes in once
    Newton has converged from one side.
    """
    glo, ghi = g(lo), g(hi)
    if not (glo <= 0.0 <= ghi or ghi <= 0.0 <= glo):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]: g = {glo!r}, {ghi!r}")
    if 0.0 in (glo, ghi):  # the loop below would bisect away from a zero at lo
        return lo if glo == 0.0 else hi
    budget = (hi - lo) * 2.0**_NEWTON_GRACE
    x = None  # the last iterate, where the next Newton step starts
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(glo) <= abs(ghi) else hi
        budget *= 0.5
        t = mid
        if x is not None and hi - lo <= budget:
            step = -gx / dgx if dgx else math.nan
            nearest = math.nextafter(x, hi if x == lo else lo)
            newton = nearest if abs(step) < abs(nearest - x) else x + step
            if lo < newton < hi:
                t = newton
        if gdg is None:
            gm = g(t)
        else:
            gm, dgm = gdg(t)
        if gm == 0.0:
            return t
        if math.isnan(gm):
            raise ValueError(f"g is NaN at {t!r} inside [{lo!r}, {hi!r}]")
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = t, gm
        else:
            hi, ghi = t, gm
        if gdg is not None:
            x, gx, dgx = t, gm, dgm


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


def _amplitudes(alpha: float, beta: float, theta: float):
    a = (alpha + 2.0 * beta * math.cos(theta)) / 3.0
    b = (alpha - 2.0 * beta * math.cos(theta - _PI_3)) / 3.0
    c = (alpha - 2.0 * beta * math.cos(theta + _PI_3)) / 3.0
    return a, b, c


def one_vs_rest_entropy(z: float, N: int) -> float:
    """Output entropy of the one-vs-rest state of omega_N(z), z in [-1/(N-1), 1]:
    x = (alpha + (N-1) beta)/N once and y = (alpha - beta)/N N-1 times, with
    alpha = sqrt(1 + (N-1) z) and beta = sqrt(1 - z).  For z >= 0 it is
    Terhal and Vollbrecht's isotropic-state minimizer (PRL 85, 2625 (2000))."""
    N = _check_dimension(N)
    return _one_vs_rest_entropy(*_alpha_beta(check_z(z, N), N), N)


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
    """The first two theta-derivatives of _output_entropy, as (slope,
    curvature).  An amplitude x adds -2 x x' (log x^2 + 1) to the slope and
    -2 ((x'^2 + x x'') (log x^2 + 1) + 2 x'^2) to the curvature, with
    a' = -2 beta sin(theta)/3, b', c' = 2 beta sin(theta -+ pi/3)/3 and
    x'' = alpha/3 - x.  At theta = 0, b = c and b' = -c', so the slope is
    exactly zero there, and the curvature is _theta0_curvature up to
    round-off, with two exceptions.  At z = 0, b = c = 0 and log b^2 is
    round-off.  Next to z = 1 the curvature is about (4/sqrt(3)) beta^3,
    below the absolute round-off of this fused sum, about 1e-17: at
    z = 1 - 1e-14 it reads 1.26e-17 against 2.32e-21.  So the angle at
    theta = 0 is decided by _theta0_curvature, which keeps its sign there."""
    a, b, c = _amplitudes(alpha, beta, theta)
    da = -2.0 * beta * math.sin(theta) / 3.0
    db = 2.0 * beta * math.sin(theta - _PI_3) / 3.0
    dc = 2.0 * beta * math.sin(theta + _PI_3) / 3.0
    third = alpha / 3.0
    a2, b2, c2 = a * a, b * b, c * c
    log_a = math.log(TINY if TINY > a2 else a2) + 1.0
    log_b = math.log(TINY if TINY > b2 else b2) + 1.0
    log_c = math.log(TINY if TINY > c2 else c2) + 1.0
    # each sum runs from 0.0 through a, b, c, left to right, as a loop would
    slope = 0.0 + -2.0 * a * da * log_a + -2.0 * b * db * log_b + -2.0 * c * dc * log_c
    curvature = (
        0.0
        + -2.0 * ((da * da + a * (third - a)) * log_a + 2.0 * da * da)
        + -2.0 * ((db * db + b * (third - b)) * log_b + 2.0 * db * db)
        + -2.0 * ((dc * dc + c * (third - c)) * log_c + 2.0 * dc * dc)
    )
    return slope, curvature


def min_pure_output_entropy(z: float):
    """Minimum over theta of the output entropy at fixed z, as (value,
    theta_min) with theta_min in [0, pi/6].

    theta = 0 is stationary, and it is the minimum wherever the
    theta-curvature there (_theta0_curvature) is not negative: above
    theta_transition, where the value is one_vs_rest_entropy(z, 3).  Below it,
    theta_min is the one sign change of the slope on (0, pi/3), found by
    _bisect's Newton steps on [0, pi/4], each from one evaluation of
    _theta_derivatives.  At z = -1/2 it is pi/6 exactly, where the
    amplitude c is zero.  Raises ValueError when the slope keeps its sign
    on [0, pi/4].
    """
    return _min_output_entropy(*_alpha_beta(check_z(z)))


def _min_output_entropy(alpha: float, beta: float):
    if beta == 0.0:
        # z = 1: the orbit degenerates to a single state
        return LN3, 0.0
    if alpha == 0.0:
        # z = -1/2: c = 0 at theta = pi/6, and (a, b) = (1, -1)/sqrt(2)
        return LN2, math.pi / 6.0
    k = _theta0_curvature(alpha, beta)
    if not k < 0.0:
        return _one_vs_rest_entropy(alpha, beta, 3), 0.0
    theta = _bisect(
        lambda t: k if t == 0.0 else _theta_derivatives(alpha, beta, t)[0],
        0.0,
        math.pi / 4.0,
        lambda t: _theta_derivatives(alpha, beta, t),
    )
    return _output_entropy(alpha, beta, theta), theta


def _theta0_curvature(alpha: float, beta: float) -> float:
    """d^2/dtheta^2 of the output entropy at theta = 0.  An amplitude x adds
    -2 ((x'^2 + x x'') (log x^2 + 1) + 2 x'^2); at theta = 0,
    a = (alpha + 2 beta)/3 with a' = 0, a'' = -2 beta/3, and
    b = c = (alpha - beta)/3 with b'^2 = beta^2/3, b'' = beta/3 (b = 0 at z = 0)."""
    a = (alpha + 2.0 * beta) / 3.0
    b = (alpha - beta) / 3.0
    b2 = b * b
    a_term = (4.0 / 3.0) * a * beta * (math.log(a * a) + 1.0)
    b_term = (beta * beta + b * beta) / 3.0 * (math.log(TINY if TINY > b2 else b2) + 1.0) + 2.0 * beta * beta / 3.0
    return a_term - 4.0 * b_term


def theta_transition() -> float:
    """Largest z at which the minimizing angle departs from zero: the zero of
    the theta-curvature at theta = 0 (_theta0_curvature), located by
    _bisect on TRANSITION_BRACKET.  The transition is a pitchfork:
    below it the curvature is negative and theta_min grows like
    sqrt(z_t - z)."""
    return _bisect(lambda z: _theta0_curvature(*_alpha_beta(z)), *TRANSITION_BRACKET)


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
