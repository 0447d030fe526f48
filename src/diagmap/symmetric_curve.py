"""Entanglement entropy of the diagonal map on the permutation-symmetric
real qutrit family.

The family is parametrized by the off-diagonal entry z in [-1/2, 1].  Pure
states compatible with a given z form a one-parameter family in an angle
theta; minimizing the diagonal output entropy over theta gives the curve
epsilon(z), whose lower convex envelope is the entanglement entropy.  The
envelope replaces epsilon by straight chords from the left endpoint to a
tangency point z*, and from 5/6 to the right endpoint.  The three cyclic
shifts of real (a, b, c) mix to the member at z = ab + bc + ca, so one
cyclic orbit, or two mixed along a chord, attain the envelope.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .entropy import LN2, LN3, TINY, eta
from .hull import _bisect, tangent_from_point
from .states import NORM_TOL, Z_MAX, Z_MIN, Decomposition, _number, check_z

UPPER_KNEE = 5.0 / 6.0
UPPER_KNEE_VALUE = LN3 - LN2 / 3.0

TRANSITION_BRACKET = (-0.45, -0.40)

_PI_3 = math.pi / 3.0
# _amplitudes' cos(theta -+ pi/3) at theta = 0: cos is even, so both are this double
_COS_PI_3 = math.cos(_PI_3)

REGION_LOWER_LINEAR = "lower_linear"
REGION_ROOF = "roof_equals_epsilon"
REGION_UPPER_LINEAR = "upper_linear"


class EDCurveRecord(NamedTuple):
    z: float
    epsilon: float
    theta_min: float
    ed: float
    region: str


def _alpha_beta(z: float):
    # max(x, 0.0) as a comparison: the builtin costs more per call
    s, d = 2.0 * z + 1.0, 1.0 - z
    return math.sqrt(0.0 if 0.0 > s else s), math.sqrt(0.0 if 0.0 > d else d)


def _amplitudes(alpha: float, beta: float, theta: float):
    a = (alpha + 2.0 * beta * math.cos(theta)) / 3.0
    b = (alpha - 2.0 * beta * math.cos(theta - _PI_3)) / 3.0
    c = (alpha - 2.0 * beta * math.cos(theta + _PI_3)) / 3.0
    return a, b, c


def theta0_entropy(z: float) -> float:
    """Diagonal output entropy of the theta = 0 state:
    2*eta((alpha-beta)^2/9) + eta((alpha+2*beta)^2/9)."""
    return _theta0_entropy(*_alpha_beta(check_z(z)))


def _theta0_entropy(alpha: float, beta: float) -> float:
    return 2.0 * eta((alpha - beta) ** 2 / 9.0) + eta((alpha + 2.0 * beta) ** 2 / 9.0)


def _theta0_slope(z: float) -> float:
    """d theta0_entropy / dz for z in (-1/2, 1) other than 0.  With
    u = (alpha-beta)^2/9 and v = (alpha+2 beta)^2/9, 2u + v = 1, so the
    slope is 2 u' log(v/u) with u' = 2 (alpha-beta)(1/alpha + 1/(2 beta))/9."""
    alpha, beta = _alpha_beta(z)
    u = (alpha - beta) ** 2 / 9.0
    v = (alpha + 2.0 * beta) ** 2 / 9.0
    du = 2.0 * (alpha - beta) * (1.0 / alpha + 0.5 / beta) / 9.0
    return 2.0 * du * math.log(v / u)


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
    theta_transition, where the value is theta0_entropy(z).  Below it,
    theta_min is the one sign change of the slope on (0, pi/3), found by
    hull._bisect's Newton steps on [0, pi/4], each from one evaluation of
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
        return _theta0_entropy(alpha, beta), 0.0
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
    hull._bisect on TRANSITION_BRACKET.  The transition is a pitchfork:
    below it the curvature is negative and theta_min grows like
    sqrt(z_t - z)."""
    return _bisect(lambda z: _theta0_curvature(*_alpha_beta(z)), *TRANSITION_BRACKET)


@lru_cache(maxsize=1)
def lower_tangent_z() -> float:
    """Tangency abscissa z* of the chord anchored at (-1/2, log 2) against
    the theta = 0 entropy curve."""
    return tangent_from_point(theta0_entropy, Z_MIN, LN2, (-0.45, -0.30), df=_theta0_slope)


def _piece(z: float):
    """The curve's piece at a checked z as (region, points): it mixes the
    orbits of the states at (z_end, theta) of its points (weight, z_end,
    theta, value), with weights summing to 1 and output entropies value.
    A value None is theta0_entropy(z_end), left to _envelope, so that
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
    return sum(w * (_theta0_entropy(*_alpha_beta(z_end)) if v is None else v) for w, z_end, _, v in points)


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
        value = _theta0_entropy(alpha, beta)
        return EDCurveRecord(z, value, 0.0, value, region)
    return EDCurveRecord(z, *_min_output_entropy(alpha, beta), _envelope(points), region)


# the cyclic shifts (a, b, c), (b, c, a), (c, a, b), as indices into (a, b, c)
_SHIFTS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def _orbit(a: float, b: float, c: float) -> np.ndarray:
    """The cyclic shifts of real amplitudes (a, b, c) as one complex array
    that owns its data, one state per row: three states that mix to
    symmetric_state(ab + bc + ca), or the single state when all three
    amplitudes are equal."""
    if a == b == c:
        return np.array(((a, b, c),), dtype=complex)
    return np.array((a, b, c), dtype=complex)[_SHIFTS]


@lru_cache(maxsize=4)
def _chord_end_orbit(z_end: float, theta: float) -> np.ndarray:
    """The orbit of the state at (z_end, theta) that a chord mixes: the
    theta = pi/6 orbit at -1/2 or the theta = 0 orbit at z*, 5/6 or 1.  It
    does not depend on z, so each is built once, on first use, and is
    read-only."""
    orbit = _orbit(*_amplitudes(*_alpha_beta(z_end), theta))
    orbit.flags.writeable = False
    return orbit


def optimal_decomposition(z: float) -> Decomposition:
    """A decomposition of symmetric_state(z) attaining entanglement_entropy(z):
    the cyclic orbit of each point of z's piece, sharing the point's weight.
    Inside [z*, 5/6] it is the orbit of the theta = 0 state; on the linear
    pieces it mixes the two chord ends' orbits (_chord_end_orbit), copied
    into the result by one concatenation, so that no two results share
    memory.  Only an orbit of weight 0 is left out."""
    region, points = _piece(check_z(z))
    if region == REGION_ROOF:
        ((w, z_end, _, _),) = points
        alpha, beta = _alpha_beta(z_end)
        # the theta = 0 amplitudes (a, b, b), with no cosine to take
        a, b = (alpha + 2.0 * beta) / 3.0, (alpha - 2.0 * beta * _COS_PI_3) / 3.0
        states = _orbit(a, b, b)
        w /= len(states)
        return Decomposition(weights=[w] * len(states), states=states)
    weights, orbits = [], []
    for w, z_end, theta, _ in points:
        orbit = _chord_end_orbit(z_end, theta)
        w /= len(orbit)
        if w > 0.0:
            weights += [w] * len(orbit)
            orbits.append(orbit)
    return Decomposition(weights=weights, states=np.concatenate(orbits))


def rank2_state(z: float, x: complex, a: complex, b: complex) -> np.ndarray:
    """The rank-<=2 state supported on the basis vector e0 and (0, a, b).

    Requires |a|^2 + |b|^2 = 1, 0 <= z <= 1 and |x|^2 <= z(1-z), which
    together make the matrix a valid density matrix.
    """
    a, b, x = (_number(v, complex) for v in (a, b, x))
    if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= NORM_TOL:
        raise ValueError("amplitudes must satisfy |a|^2 + |b|^2 = 1")
    z = _number(z)
    if not -1e-12 <= z <= 1.0 + 1e-12:
        raise ValueError(f"z = {z!r} outside [0, 1]")
    z = min(max(z, 0.0), 1.0)
    if not abs(x) ** 2 <= z * (1.0 - z) + 1e-12:
        raise ValueError("|x|^2 exceeds z(1-z); matrix would not be positive")
    omega = np.array(
        [
            [1.0 - z, x * a, x * b],
            [np.conj(x) * np.conj(a), z * np.conj(a) * a, z * np.conj(a) * b],
            [np.conj(x) * np.conj(b), z * a * np.conj(b), z * np.conj(b) * b],
        ],
        dtype=complex,
    )
    return omega


def rank2_entanglement(z: float, x: complex, a: complex, b: complex) -> float:
    """Closed-form entanglement entropy of rank2_state(z, x, a, b)."""
    rank2_state(z, x, a, b)  # validates the preconditions
    lam = math.sqrt(max(1.0 - 4.0 * abs(complex(x)) ** 2, 0.0))
    val = eta((1.0 + lam) / 2.0) + eta((1.0 - lam) / 2.0)
    val += z * eta(abs(complex(a)) ** 2) + z * eta(abs(complex(b)) ** 2)
    return val


def curve_grid(z_min: float = Z_MIN, z_max: float = Z_MAX, z_step: float = 1e-3) -> np.ndarray:
    """Inclusive evaluation grid used by the curve export."""
    if not 0.0 < z_step < math.inf:
        raise ValueError(f"z_step must be positive and finite, got {z_step!r}")
    if not (z_min < z_max):
        raise ValueError("need z_min < z_max")
    check_z(z_min)
    check_z(z_max)
    steps = (z_max - z_min) / z_step + 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"z_step = {z_step!r} is too fine for [{z_min!r}, {z_max!r}]")
    count = int(math.floor(steps)) + 1
    zs = z_min + z_step * np.arange(count)
    zs = np.clip(zs, Z_MIN, Z_MAX)
    return zs
