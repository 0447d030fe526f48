"""Entanglement entropy of the diagonal map on the permutation-symmetric
real qutrit family.

The family is parametrized by the off-diagonal entry z in [-1/2, 1].  Pure
states compatible with a given z form a one-parameter orbit in an angle
theta; minimizing the diagonal output entropy over theta gives the curve
epsilon(z), whose lower convex envelope is the entanglement entropy.  The
envelope replaces epsilon by straight chords on two intervals: from the
left endpoint to a tangency point z*, and from 5/6 to the right endpoint.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entropy import LN2, LN3, TINY, eta, eta_array
from .hull import _bisect, tangent_from_point
from .states import Decomposition, check_pure_state, check_z

UPPER_KNEE = 5.0 / 6.0
UPPER_KNEE_VALUE = LN3 - LN2 / 3.0

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio of the angle search
THETA_PERIOD = math.pi / 3.0  # fundamental theta domain after symmetry
TRANSITION_BRACKET = (-0.45, -0.40)

REGION_LOWER_LINEAR = "lower_linear"
REGION_ROOF = "roof_equals_epsilon"
REGION_UPPER_LINEAR = "upper_linear"


@dataclass(frozen=True)
class ThetaPoint:
    """Real amplitudes (a, b, c) on the constraint sphere for a given z."""

    z: float
    theta: float
    a: float
    b: float
    c: float

    @property
    def amps(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


@dataclass(frozen=True)
class EDCurveRecord:
    z: float
    epsilon: float
    theta_min: float
    ed: float
    region: str


def _alpha_beta(z: float):
    return math.sqrt(max(2.0 * z + 1.0, 0.0)), math.sqrt(max(1.0 - z, 0.0))


def _amplitudes(alpha: float, beta: float, theta: float):
    a = (alpha + 2.0 * beta * math.cos(theta)) / 3.0
    b = (alpha - 2.0 * beta * math.cos(theta - math.pi / 3.0)) / 3.0
    c = (alpha - 2.0 * beta * math.cos(theta + math.pi / 3.0)) / 3.0
    return a, b, c


def abc_from_theta(z: float, theta: float) -> ThetaPoint:
    """Amplitudes with a^2+b^2+c^2 = 1 and ab+bc+ca = z at finite theta."""
    z = check_z(z)
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta = {theta!r} is not finite")
    a, b, c = _amplitudes(*_alpha_beta(z), theta)
    return ThetaPoint(z=z, theta=theta, a=a, b=b, c=c)


def theta0_entropy(z: float) -> float:
    """Diagonal output entropy of the theta = 0 state:
    2*eta((alpha-beta)^2/9) + eta((alpha+2*beta)^2/9)."""
    z = check_z(z)
    alpha, beta = _alpha_beta(z)
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
    out = 0.0
    for amp in _amplitudes(alpha, beta, theta):
        v = amp * amp
        if v > TINY:
            out -= v * math.log(v)
    return out


# the coarse angle scan of min_pure_output_entropy: 256 equally spaced angles
# on [0, pi/3] and the three cosines of _amplitudes on them
_SCAN = np.linspace(0.0, THETA_PERIOD, 256)
_SCAN_COS_A = np.cos(_SCAN)
_SCAN_COS_B = np.cos(_SCAN - math.pi / 3.0)
_SCAN_COS_C = np.cos(_SCAN + math.pi / 3.0)


def min_pure_output_entropy(z: float):
    """Minimum over theta of the output entropy at fixed z.

    Returns (value, theta_min) with theta_min in [0, pi/6].  The search
    scans 256 equally spaced angles on [0, pi/3] and refines the best
    bracket by golden section to width 1e-12.
    """
    z = check_z(z)
    alpha, beta = _alpha_beta(z)
    if beta == 0.0:
        # z = 1: the orbit degenerates to a single state
        return LN3, 0.0
    ca = (alpha + 2.0 * beta * _SCAN_COS_A) / 3.0
    cb = (alpha - 2.0 * beta * _SCAN_COS_B) / 3.0
    cc = (alpha - 2.0 * beta * _SCAN_COS_C) / 3.0
    vals = eta_array(ca * ca) + eta_array(cb * cb) + eta_array(cc * cc)
    i = int(np.argmin(vals))
    lo = _SCAN[max(i - 1, 0)]
    hi = _SCAN[min(i + 1, _SCAN.size - 1)]
    c = hi - INVPHI * (hi - lo)
    d = lo + INVPHI * (hi - lo)
    fc = _output_entropy(alpha, beta, c)
    fd = _output_entropy(alpha, beta, d)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - INVPHI * (hi - lo)
            fc = _output_entropy(alpha, beta, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INVPHI * (hi - lo)
            fd = _output_entropy(alpha, beta, d)
    theta = float(0.5 * (lo + hi))
    value = _output_entropy(alpha, beta, theta)
    # theta = 0 is always stationary; report it unless the found minimum
    # beats it beyond round-off (dips shallower than ~1e-13 are unresolvable)
    value0 = _output_entropy(alpha, beta, 0.0)
    if value0 <= value + 1e-13:
        return value0, 0.0
    if theta < 1e-9:
        theta = 0.0
    elif theta > THETA_PERIOD / 2.0:
        # fold a degenerate mirror minimum back into [0, pi/6]
        mirror = THETA_PERIOD - theta
        if _output_entropy(alpha, beta, mirror) <= value + 1e-12:
            theta = mirror
    return value, theta


def _theta0_curvature(z: float) -> float:
    """d^2/dtheta^2 of the output entropy at theta = 0.  An amplitude x adds
    -2 ((x'^2 + x x'') (log x^2 + 1) + 2 x'^2); at theta = 0,
    a = (alpha + 2 beta)/3 with a' = 0, a'' = -2 beta/3, and
    b = c = (alpha - beta)/3 with b'^2 = beta^2/3, b'' = beta/3."""
    alpha, beta = _alpha_beta(z)
    a = (alpha + 2.0 * beta) / 3.0
    b = (alpha - beta) / 3.0
    a_term = (4.0 / 3.0) * a * beta * (math.log(a * a) + 1.0)
    b_term = (beta * beta + b * beta) / 3.0 * (math.log(b * b) + 1.0) + 2.0 * beta * beta / 3.0
    return a_term - 4.0 * b_term


def theta_transition() -> float:
    """Largest z at which the minimizing angle departs from zero: the zero of
    the theta-curvature at theta = 0 (_theta0_curvature), located by
    hull._bisect on TRANSITION_BRACKET.  The transition is a pitchfork:
    below it the curvature is negative and theta_min grows like
    sqrt(z_t - z)."""
    return _bisect(_theta0_curvature, *TRANSITION_BRACKET)


@lru_cache(maxsize=1)
def lower_tangent_z() -> float:
    """Tangency abscissa z* of the chord anchored at (-1/2, log 2) against
    the theta = 0 entropy curve."""
    return tangent_from_point(theta0_entropy, -0.5, LN2, (-0.45, -0.30), df=_theta0_slope)


@lru_cache(maxsize=1)
def _curve_params():
    zstar = lower_tangent_z()
    return zstar, theta0_entropy(zstar)


def entanglement_entropy(z: float) -> float:
    """The piecewise closed form for the entanglement entropy at z."""
    z = check_z(z)
    zstar, s_star = _curve_params()
    if z < zstar:
        p = (zstar - z) / (zstar + 0.5)
        return p * LN2 + (1.0 - p) * s_star
    if z <= UPPER_KNEE:
        return theta0_entropy(z)
    p = (1.0 - z) / (1.0 - UPPER_KNEE)
    return p * UPPER_KNEE_VALUE + (1.0 - p) * LN3


def curve_record(z: float) -> EDCurveRecord:
    """Full per-z record: epsilon, minimizing angle, envelope value, region."""
    z = check_z(z)
    zstar, _ = _curve_params()
    epsilon, theta_min = min_pure_output_entropy(z)
    ed = entanglement_entropy(z)
    if z < zstar:
        region = REGION_LOWER_LINEAR
    elif z <= UPPER_KNEE:
        region = REGION_ROOF
    else:
        region = REGION_UPPER_LINEAR
    return EDCurveRecord(z=z, epsilon=epsilon, theta_min=theta_min, ed=ed, region=region)


_PERMUTATIONS = np.array(list(itertools.permutations(range(3))))


def _orbit_projectors(amps: np.ndarray):
    """Distinct pure states in the S3 orbit of a real amplitude vector.

    Permuted vectors that agree up to overall sign describe the same state
    and are deduplicated, so the orbit has length 3 or 6.  A permutation is
    kept, in itertools.permutations order, unless it matches a kept one u
    by np.allclose(v, +-u, atol=1e-12): |v -+ u| <= 1e-12 + 1e-5 |u| in
    every component.
    """
    vecs = amps[_PERMUTATIONS]
    tol = 1e-12 + 1e-5 * np.abs(vecs)
    same = (np.abs(vecs[:, None] - vecs) <= tol).all(axis=-1)
    same |= (np.abs(vecs[:, None] + vecs) <= tol).all(axis=-1)
    same = same.tolist()
    kept = []
    for j in range(len(vecs)):
        if not any(same[j][i] for i in kept):
            kept.append(j)
    return list(vecs[kept])


def optimal_decomposition(z: float) -> Decomposition:
    """A decomposition of symmetric_state(z) whose average output entropy
    attains entanglement_entropy(z).

    Inside [z*, 5/6] this is the length-3 orbit of the theta = 0 state; on
    the linear pieces it mixes the orbits at the two chord endpoints.
    """
    z = check_z(z)
    zstar, _ = _curve_params()
    weights = []
    states = []
    if z < zstar:
        p = (zstar - z) / (zstar + 0.5)
        for v in _orbit_projectors(abc_from_theta(-0.5, math.pi / 6.0).amps):
            weights.append(p / 3.0)
            states.append(v)
        for v in _orbit_projectors(abc_from_theta(zstar, 0.0).amps):
            weights.append((1.0 - p) / 3.0)
            states.append(v)
    elif z <= UPPER_KNEE:
        for v in _orbit_projectors(abc_from_theta(z, 0.0).amps):
            weights.append(1.0 / 3.0)
            states.append(v)
    else:
        p = (1.0 - z) / (1.0 - UPPER_KNEE)
        for v in _orbit_projectors(abc_from_theta(UPPER_KNEE, 0.0).amps):
            weights.append(p / 3.0)
            states.append(v)
        weights.append(1.0 - p)
        states.append(np.full(3, 1.0 / math.sqrt(3.0)))
    keep = [(w, s) for w, s in zip(weights, states) if w > 1e-12]
    return Decomposition(
        weights=np.array([w for w, _ in keep]),
        states=[check_pure_state(s) for _, s in keep],
    )


def rank2_state(z: float, x: complex, a: complex, b: complex) -> np.ndarray:
    """The rank-<=2 state supported on the basis vector e0 and (0, a, b).

    Requires |a|^2 + |b|^2 = 1, 0 <= z <= 1 and |x|^2 <= z(1-z), which
    together make the matrix a valid density matrix.
    """
    a, b, x = complex(a), complex(b), complex(x)
    if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-12:
        raise ValueError("amplitudes must satisfy |a|^2 + |b|^2 = 1")
    z = float(z)
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


def curve_grid(z_min: float = -0.5, z_max: float = 1.0, z_step: float = 1e-3) -> np.ndarray:
    """Inclusive evaluation grid used by the curve export."""
    if not 0.0 < z_step < math.inf:
        raise ValueError(f"z_step must be positive and finite, got {z_step!r}")
    if not (z_min < z_max):
        raise ValueError("need z_min < z_max")
    check_z(z_min)
    check_z(z_max)
    count = int(math.floor((z_max - z_min) / z_step + 1e-9)) + 1
    zs = z_min + z_step * np.arange(count)
    zs = np.clip(zs, -0.5, 1.0)
    return zs
