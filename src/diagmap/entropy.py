"""Scalar entropy primitives: eta, Shannon entropy, hermitian eigenvalues.

All entropies are in nats (natural logarithm).
"""

import math

import numpy as np

# Values in [-NEG_CLAMP, 0] are treated as exact zeros; anything more
# negative is a hard error rather than silent rounding.
NEG_CLAMP = 1e-12
SUM_TOL = 1e-10
HERMITIAN_TOL = 1e-12
# The floor of every logarithm of a squared modulus: eta_array reads entries
# at or below TINY as zeros, and the searches take the log at max(s, TINY).
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


def eta_array(x: np.ndarray) -> np.ndarray:
    """Vectorized -x*log(x) with eta(0) = 0. No domain validation.

    Entries at or below TINY (zeros, subnormals and round-off negatives)
    give a signed zero; NaN propagates.
    """
    x = np.asarray(x, dtype=float)
    lg = np.log(x, out=np.zeros(x.shape), where=x > TINY)
    return -x * lg


def clamp_probabilities(p) -> np.ndarray:
    """Validate and clean a probability vector.

    Entries in [-NEG_CLAMP, 0] are clamped to 0; more negative or NaN
    entries or a total mass off 1 by more than SUM_TOL raise ValueError.
    """
    p = np.asarray(p, dtype=float).copy()
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be a non-empty 1-D array")
    if not p.min() >= -NEG_CLAMP:
        raise ValueError(f"negative probability {p.min()!r} below -{NEG_CLAMP}")
    p[p < 0.0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow to inf fails the test below
        total = p.sum()
    if not abs(total - 1.0) <= SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return p


def _entropy_sum(values) -> float:
    """Sum of eta over values clipped to [0, 1], smallest first, so the
    result does not depend on their order."""
    return float(sum(eta(float(x)) for x in np.sort(np.clip(values, 0.0, 1.0))))


def shannon_entropy(p) -> float:
    """Shannon entropy sum(eta(p_i)) in nats of any vector that
    clamp_probabilities accepts, exactly invariant under permutations."""
    return _entropy_sum(clamp_probabilities(p))


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


def hermitian_eigenvalues(H) -> np.ndarray:
    """Real eigenvalues of a hermitian matrix, ascending."""
    H = check_hermitian(H)
    return np.linalg.eigvalsh(H)
