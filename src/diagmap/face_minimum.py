"""Minimal output entropy of the diagonal map on the face of states
supported orthogonally to the uniform vector, in closed form.

Real pure states on that face are unit vectors with zero component sum.
The closed-form minimum is the lesser of log 2 (pair states) and the
one-vs-rest value two_value_entropy(N, 1), which crosses below log 2
between N = 6 and N = 7; a Lagrange analysis via the Lambert W function
classifies the stationary amplitude values.  Importing this module loads
no numpy, and nothing here imports the search that checks it: that oracle,
brute_force_min_face, runs linesearch's engine on the zero-sum unit sphere
and lives there, and the minimizing states as arrays, minimizer_states,
live in the data layer `states`.  Both names resolve here too when first
read (PEP 562), for the callers that look them up in this module.
"""

import math
import sys
from typing import NamedTuple

from . import _lazy
from .entropy import LN2, _check_dimension, _integer, _number
from .lambert import BRANCH_POINT, lambert_w0, lambert_wm1


def min_face_entropy(N: int) -> float:
    """Closed-form minimal output entropy on the zero-sum face: the lesser of
    the one-vs-rest value two_value_entropy(N, 1) and the pairs' log 2."""
    return min(two_value_entropy(_check_dimension(N), 1), LN2)


def pair_states_minimize(N: int) -> bool:
    """Whether the pair states attain min_face_entropy(N), which holds for
    N = 2..6; otherwise the one-vs-rest states do."""
    return min_face_entropy(N) == LN2


def _minimizers(N: int):
    """The pure states attaining min_face_entropy(N), one at a time, each a
    tuple of N floats: where pair_states_minimize(N), the N(N-1)/2 pair
    states (e_j - e_k)/sqrt(2); otherwise the N placements of the large
    component in ((N-1)a, -a, ..., -a) with a = (N(N-1))^{-1/2}.  N must
    have passed _check_dimension.  Raises MemoryError, naming N, when a
    state of N floats has more bytes than an index can count (numpy would
    refuse its array with a ValueError) or does not fit in memory."""
    if N > sys.maxsize // 8:
        raise MemoryError(f"a state of {N} floats has more bytes than an index can count")
    try:
        if pair_states_minimize(N):
            for j in range(N):
                for k in range(j + 1, N):
                    v = [0.0] * N
                    v[j] = 1.0 / math.sqrt(2.0)
                    v[k] = -1.0 / math.sqrt(2.0)
                    yield tuple(v)
        else:
            a = 1.0 / math.sqrt(N * (N - 1.0))
            for j in range(N):
                v = [-a] * N
                v[j] = (N - 1.0) * a
                yield tuple(v)
    except MemoryError:  # raised without a message
        raise MemoryError(f"a state of {N} floats does not fit in memory") from None


def two_value_entropy(N: int, n: int) -> float:
    """Output entropy of the stationary states with n entries of one value
    and N-n of another: log N - (1 - 2n/N) log(N/n - 1).

    Symmetric under n <-> N-n and concave in n, so its minimum over n sits
    at the edges n = 1 and n = N-1.
    """
    N, n = _integer(N), _integer(n)
    if not 1 <= n <= N - 1:
        raise ValueError(f"need 1 <= n <= N-1, got n={n}, N={N}")
    N = _check_dimension(N)  # refuses an N past the float range
    # with n <= N/2 by the symmetry, log n - log(1 - n/N) + (2n/N) log(N/n - 1)
    # sums three non-negative terms
    n = min(n, N - n)
    return math.log(n) - math.log1p(-n / N) + (2.0 * n / N) * math.log((N - n) / n)


class StationaryRoots(NamedTuple):
    """Real solutions x of x log(x^2) = lam + mu * x.

    x1 always exists; x2 and x3 exist only while zeta <= 1/e and coincide
    at the boundary.
    """

    lam: float
    mu: float
    zeta: float
    x1: float
    x2: float | None = None
    x3: float | None = None

    @property
    def roots(self):
        return [x for x in (self.x1, self.x2, self.x3) if x is not None]


def lagrange_roots(lam: float, mu: float) -> StationaryRoots:
    """Classify the stationary amplitudes for multipliers (lam, mu)."""
    lam, mu = _number(lam), _number(mu)
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise ValueError(f"multipliers must be finite, got lam={lam!r}, mu={mu!r}")
    if lam == 0.0:
        raise ValueError("lam must be nonzero (zero gives the pair-state family)")
    try:
        zeta = 0.5 * abs(lam) * math.exp(-0.5 * mu)
    except OverflowError:
        zeta = math.inf
    if not sys.float_info.min <= zeta < math.inf:  # a subnormal zeta has lost bits
        raise ValueError(f"zeta = |lam| exp(-mu/2)/2 = {zeta!r} at lam={lam!r}, mu={mu!r} is not a normal positive float")
    roots = [lam / (2.0 * lambert_w0(zeta))]
    if -zeta >= BRANCH_POINT:
        roots += [lam / (2.0 * lambert_w0(-zeta)), lam / (2.0 * lambert_wm1(-zeta))]
    for x in roots:
        if x == 0.0 or not math.isfinite(x):
            raise ValueError(f"a root at lam={lam!r}, mu={mu!r} is zero or not finite: {roots!r}")
    return StationaryRoots(lam, mu, zeta, *roots)


def root_square_sum(zeta: float) -> float:
    """exp(2 W0(z)) + exp(2 W0(-z)) + exp(2 W-1(-z)) for 0 < z <= 1/e.

    This is the sum of squares of the three stationary roots with the
    common exp(mu) factor divided out; it tends to 2 as zeta -> 0 and
    increases on the domain.
    """
    zeta = _number(zeta)
    if not 0.0 < zeta <= -BRANCH_POINT * (1.0 + 1e-12):
        raise ValueError(f"zeta = {zeta!r} outside (0, 1/e]")
    zeta = min(zeta, -BRANCH_POINT)
    return (
        math.exp(2.0 * lambert_w0(zeta))
        + math.exp(2.0 * lambert_w0(-zeta))
        + math.exp(2.0 * lambert_wm1(-zeta))
    )


# the two names that perfbench reads in this module, defined by the oracle
# and the data layer
__getattr__, __dir__ = _lazy.lazy_names(
    globals(), {".linesearch": ("brute_force_min_face",), ".states": ("minimizer_states",)}
)
