"""The array side of the symmetric curve: the evaluation grid as an
ndarray, the cyclic orbits and the optimal decompositions built from
them, and the rank-2 family's matrices.  This module imports numpy;
`symmetric_curve`, which loads none, resolves curve_grid and
optimal_decomposition on first access.
"""

import math
from functools import lru_cache

import numpy as np

from .states import Decomposition
from .symmetric_curve import (
    REGION_ROOF,
    Z_MAX,
    Z_MIN,
    Z_STEP,
    _PI_3,
    _alpha_beta,
    _amplitudes,
    _piece,
    _rank2_parameters,
    check_z,
    z_grid,
)

# _amplitudes' cos(theta -+ pi/3) at theta = 0: cos is even, so both are this double
_COS_PI_3 = math.cos(_PI_3)


def curve_grid(z_min: float = Z_MIN, z_max: float = Z_MAX, z_step: float = Z_STEP) -> np.ndarray:
    """Inclusive evaluation grid used by the curve export: symmetric_curve.z_grid
    as a float64 ndarray on the same memory."""
    return np.frombuffer(z_grid(z_min, z_max, z_step))


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
    together make the matrix a valid density matrix
    (symmetric_curve._rank2_parameters checks them).
    """
    z, x, a, b = _rank2_parameters(z, x, a, b)
    omega = np.array(
        [
            [1.0 - z, x * a, x * b],
            [np.conj(x) * np.conj(a), z * np.conj(a) * a, z * np.conj(a) * b],
            [np.conj(x) * np.conj(b), z * a * np.conj(b), z * np.conj(b) * b],
        ],
        dtype=complex,
    )
    return omega
