"""Scalar entropy primitives: eta, the entropy of a spectrum, the hermitian
check, and the floored log of every search objective.

All entropies are in nats (natural logarithm).
"""

import math

import numpy as np

# Values in [-NEG_CLAMP, 0] are treated as exact zeros; anything more
# negative is a hard error rather than silent rounding.
NEG_CLAMP = 1e-12
HERMITIAN_TOL = 1e-12
# the floor of every logarithm of a squared modulus (floored_log)
TINY = 1e-300

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def eta(x: float) -> float:
    """-x*log(x) for x > 0, and 0 at x = 0.

    Accepts x in [-1e-12, 1 + 1e-12]; the tiny windows around 0 and 1
    absorb eigenvalue round-off and are clamped before evaluation.
    """
    if not -NEG_CLAMP <= x <= 1.0 + NEG_CLAMP:
        raise ValueError(f"eta argument {x!r} outside [0, 1]")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 0.0
    return -x * math.log(x)


def floored_log(x: np.ndarray) -> np.ndarray:
    """Elementwise log of an array, with 0 at or below TINY and at NaN: the
    log of the squared moduli in every search objective."""
    return np.log(x, out=np.zeros(x.shape), where=x > TINY)


def _entropy_sum(values) -> float:
    """Sum of eta over values clipped to [0, 1], smallest first, so the
    result does not depend on their order."""
    return float(sum(eta(float(x)) for x in np.sort(np.clip(values, 0.0, 1.0))))


def check_hermitian(H) -> np.ndarray:
    """Return H as a complex square array, raising if it is not hermitian."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise ValueError("matrix has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow to inf or NaN fails the test below
        dev = np.max(np.abs(H - H.conj().T))
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not hermitian (deviation {dev:.3e})")
    return H
