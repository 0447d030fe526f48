"""Minimal output entropy of the diagonal map on the face of states
supported orthogonally to the uniform vector.

Real pure states on that face are unit vectors with zero component sum.
The closed-form minimum is the lesser of log 2 (pair states) and the
one-vs-rest value two_value_entropy(N, 1), which crosses below log 2
between N = 6 and N = 7; a Lagrange analysis via the Lambert W function
classifies the stationary amplitude values, and linesearch's Riemannian
BFGS engine and unit-sphere objective (the roof's pricing runs both too),
on the zero-sum unit sphere, provide an independent check.
"""

import math
import operator
import sys
from typing import NamedTuple

import numpy as np

from .entropy import LN2, _number
from .lambert import BRANCH_POINT, lambert_w0, lambert_wm1
from .linesearch import check_count, check_seed, sphere_functions, stiefel_bfgs, stream_rng

# the face search's default budget: this many restarts per dimension N
RESTARTS_PER_N = 50


def _check_dimension(N) -> int:
    """N as an int, raising unless it is an integer N >= 2."""
    N = operator.index(N)
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    return N


def min_face_entropy(N: int) -> float:
    """Closed-form minimal output entropy on the zero-sum face: the lesser of
    the one-vs-rest value two_value_entropy(N, 1) and the pairs' log 2."""
    return min(two_value_entropy(_check_dimension(N), 1), LN2)


def pair_states_minimize(N: int) -> bool:
    """Whether the pair states attain min_face_entropy(N), which holds for
    N = 2..6; otherwise the one-vs-rest states do."""
    return min_face_entropy(N) == LN2


def minimizer_states(N: int):
    """All pure states attaining min_face_entropy(N).

    Where pair_states_minimize(N) these are the N(N-1)/2 pair states
    (e_j - e_k)/sqrt(2); otherwise the N placements of the large component
    in ((N-1)a, -a, ..., -a) with a = (N(N-1))^{-1/2}.
    """
    return list(_minimizers(_check_dimension(N)))


def _minimizers(N: int):
    """The states of minimizer_states(N), in its order, one at a time.
    Raises MemoryError when a state of N floats has more bytes than an
    index can count, which numpy would refuse with a ValueError."""
    if N > sys.maxsize // 8:
        raise MemoryError(f"a state of {N} floats has more bytes than an index can count")
    if pair_states_minimize(N):
        for j in range(N):
            for k in range(j + 1, N):
                v = np.zeros(N)
                v[j] = 1.0 / math.sqrt(2.0)
                v[k] = -1.0 / math.sqrt(2.0)
                yield v
    else:
        a = 1.0 / math.sqrt(N * (N - 1.0))
        for j in range(N):
            v = np.full(N, -a)
            v[j] = (N - 1.0) * a
            yield v


def two_value_entropy(N: int, n: int) -> float:
    """Output entropy of the stationary states with n entries of one value
    and N-n of another: log N - (1 - 2n/N) log(N/n - 1).

    Symmetric under n <-> N-n and concave in n, so its minimum over n sits
    at the edges n = 1 and n = N-1.
    """
    N, n = operator.index(N), operator.index(n)
    if not 1 <= n <= N - 1:
        raise ValueError(f"need 1 <= n <= N-1, got n={n}, N={N}")
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


def zero_sum_basis(N: int) -> np.ndarray:
    """Orthonormal basis (rows) of the zero-component-sum hyperplane."""
    H = np.zeros((N - 1, N))
    for k in range(1, N):
        H[k - 1, :k] = 1.0
        H[k - 1, k] = -float(k)
        H[k - 1] /= math.sqrt(k * (k + 1.0))
    return H


def brute_force_min_face(N: int, restarts: int | None = None, seed: int = 0):
    """Minimize the output entropy over the zero-sum unit sphere from random
    restarts, RESTARTS_PER_N * N when restarts is omitted, the rows of one
    draw of stream 0 of the seed (numpy fills them in order, so restart k's
    start does not depend on the count), by stiefel_bfgs on
    sphere_functions(B), B the zero_sum_basis as columns: it moves the
    reduced (in-hyperplane) coordinates y of a = By on their unit sphere,
    so both constraints hold at every step.  Returns (value, argmin)."""
    N = _check_dimension(N)
    restarts = check_count("restarts", RESTARTS_PER_N * N if restarts is None else restarts)
    seed = check_seed(seed)
    Y = stream_rng(seed, 0).standard_normal((restarts, N - 1))
    Y /= np.sqrt(Y[:, None, :] @ Y[:, :, None])[:, 0]  # sqrt(y @ y) per row, as np.linalg.norm(y)
    B = zero_sum_basis(N).T
    W, f, _, _ = stiefel_bfgs(Y[:, :, None], sphere_functions(B))
    best = int(np.argmin(f))
    return float(f[best]), B @ W[best, :, 0]
