"""Scalar entropy primitives: eta and the constants of the closed forms.
Importing this module loads no numpy: the array primitives (the entropy of
a spectrum, the hermitian check and the floored log of every search
objective) live in `matrices` and resolve here on first access.

All entropies are in nats (natural logarithm).
"""

import math

from . import _lazy

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


__getattr__, __dir__ = _lazy.lazy_names(globals(), {".matrices": ("check_hermitian", "floored_log")})
