"""Scalar entropy primitives: eta, the number and dimension checks of the
closed forms, and the constants and tolerances that the closed forms and
the data layer share.  Importing this module loads no numpy; the array
primitives (the entropy of a spectrum, the hermitian check and the floored
log of every search objective) live in `states`.

All entropies are in nats (natural logarithm).
"""

import math
import operator
import sys

# Values in [-NEG_CLAMP, 0] are treated as exact zeros; anything more
# negative is a hard error rather than silent rounding.
NEG_CLAMP = 1e-12
HERMITIAN_TOL = 1e-12
# the slack of a unit norm: a decomposition's members, rank2_state's (a, b)
NORM_TOL = 1e-12
# the floor of every logarithm of a squared modulus (floored_log)
TINY = 1e-300

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def _number(x, kind=float):
    """kind(x), refusing the str and bytes that float() and complex() parse."""
    if isinstance(x, (str, bytes)):
        raise TypeError(f"expected a number, got {x!r}")
    return kind(x)


def _check_dimension(N) -> int:
    """N as an int, raising unless it is an integer N >= 2 that converts to
    a float: the closed forms compute in floats."""
    N = operator.index(N)
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    try:
        float(N)
    except OverflowError:
        raise ValueError(f"N = {N} is past the float range (at most {sys.float_info.max!r})") from None
    return N


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

