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

from .entropy import LN2, LN3, eta
from .hull import tangent_from_point
from .linesearch import INVPHI
from .states import Decomposition, check_pure_state, check_z

UPPER_KNEE = 5.0 / 6.0
UPPER_KNEE_VALUE = LN3 - LN2 / 3.0

THETA_PERIOD = math.pi / 3.0  # fundamental theta domain after symmetry

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


def _amplitudes(z: float, theta: float):
    alpha, beta = _alpha_beta(z)
    a = (alpha + 2.0 * beta * math.cos(theta)) / 3.0
    b = (alpha - 2.0 * beta * math.cos(theta - math.pi / 3.0)) / 3.0
    c = (alpha - 2.0 * beta * math.cos(theta + math.pi / 3.0)) / 3.0
    return a, b, c


def abc_from_theta(z: float, theta: float) -> ThetaPoint:
    """Amplitudes with a^2+b^2+c^2 = 1 and ab+bc+ca = z at angle theta."""
    z = check_z(z)
    a, b, c = _amplitudes(z, theta)
    return ThetaPoint(z=z, theta=theta, a=a, b=b, c=c)


def theta0_entropy(z: float) -> float:
    """Diagonal output entropy of the theta = 0 state:
    2*eta((alpha-beta)^2/9) + eta((alpha+2*beta)^2/9)."""
    z = check_z(z)
    alpha, beta = _alpha_beta(z)
    return 2.0 * eta((alpha - beta) ** 2 / 9.0) + eta((alpha + 2.0 * beta) ** 2 / 9.0)


def _entropy_at(z: float, theta: float) -> float:
    a, b, c = _amplitudes(z, theta)
    out = 0.0
    for v in (a * a, b * b, c * c):
        if v > 1e-300:
            out -= v * math.log(v)
    return out


def min_pure_output_entropy(z: float, *, coarse: int = 256):
    """Minimum over theta of the output entropy at fixed z.

    Returns (value, theta_min) with theta_min in [0, pi/6].  The search
    scans `coarse` equally spaced angles on [0, pi/3] and refines the best
    bracket by golden section to width 1e-12.
    """
    z = check_z(z)
    alpha, beta = _alpha_beta(z)
    if beta == 0.0:
        # z = 1: the orbit degenerates to a single state
        return LN3, 0.0
    grid = np.linspace(0.0, THETA_PERIOD, coarse)
    ca = (alpha + 2.0 * beta * np.cos(grid)) / 3.0
    cb = (alpha - 2.0 * beta * np.cos(grid - math.pi / 3.0)) / 3.0
    cc = (alpha - 2.0 * beta * np.cos(grid + math.pi / 3.0)) / 3.0
    vals = np.zeros_like(grid)
    for comp in (ca, cb, cc):
        sq = comp * comp
        pos = sq > 1e-300
        vals[pos] -= sq[pos] * np.log(sq[pos])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, coarse - 1)]
    c = hi - INVPHI * (hi - lo)
    d = lo + INVPHI * (hi - lo)
    fc = _entropy_at(z, c)
    fd = _entropy_at(z, d)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - INVPHI * (hi - lo)
            fc = _entropy_at(z, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INVPHI * (hi - lo)
            fd = _entropy_at(z, d)
    theta = float(0.5 * (lo + hi))
    value = _entropy_at(z, theta)
    # theta = 0 is always stationary; report it unless the found minimum
    # beats it beyond round-off (dips shallower than ~1e-13 are unresolvable)
    value0 = _entropy_at(z, 0.0)
    if value0 <= value + 1e-13:
        return value0, 0.0
    if theta < 1e-9:
        theta = 0.0
    elif theta > THETA_PERIOD / 2.0:
        # fold a degenerate mirror minimum back into [0, pi/6]
        mirror = THETA_PERIOD - theta
        if _entropy_at(z, mirror) <= value + 1e-12:
            theta = mirror
    return value, theta


def theta_transition(*, bracket=(-0.45, -0.40), tol: float = 1e-9) -> float:
    """Largest z at which the minimizing angle departs from zero, located
    by bisection on the indicator theta_min(z) > 1e-6."""
    lo, hi = bracket
    if min_pure_output_entropy(lo)[1] <= 1e-6 or min_pure_output_entropy(hi)[1] > 1e-6:
        raise RuntimeError("transition bracket does not straddle the indicator")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if min_pure_output_entropy(mid)[1] > 1e-6:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=1)
def lower_tangent_z() -> float:
    """Tangency abscissa z* of the chord anchored at (-1/2, log 2) against
    the theta = 0 entropy curve."""
    return tangent_from_point(theta0_entropy, -0.5, LN2, (-0.45, -0.30))


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


def _orbit_projectors(amps: np.ndarray):
    """Distinct pure states in the S3 orbit of a real amplitude vector.

    Permuted vectors that agree up to overall sign describe the same state
    and are deduplicated, so the orbit has length 3 or 6.
    """
    vecs = []
    for perm in itertools.permutations(range(3)):
        v = amps[list(perm)]
        if not any(np.allclose(v, u, atol=1e-12) or np.allclose(v, -u, atol=1e-12) for u in vecs):
            vecs.append(v)
    return vecs


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
    if z_step <= 0.0:
        raise ValueError("z_step must be positive")
    if not (z_min < z_max):
        raise ValueError("need z_min < z_max")
    check_z(z_min)
    check_z(z_max)
    count = int(math.floor((z_max - z_min) / z_step + 1e-9)) + 1
    zs = z_min + z_step * np.arange(count)
    zs = np.clip(zs, -0.5, 1.0)
    return zs
