"""Minimal output entropy of the diagonal map on the face of states
supported orthogonally to the uniform vector.

Real pure states on that face are unit vectors with zero component sum.
The closed-form minimum is log 2 (pair states) up to N = 6 and switches to
the one-vs-rest family for N > 6; a Lagrange analysis via the Lambert W
function classifies the stationary amplitude values, and a conjugate-gradient
search along great circles of the sphere provides an independent numerical
check.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .entropy import LN2, eta_array
from .lambert import lambert_w0, lambert_wm1
from .linesearch import check_count, check_seed, rotation_line_search

_INV_E = math.exp(-1.0)


def min_face_entropy(N: int) -> float:
    """Closed-form minimal output entropy on the zero-sum face."""
    N = operator.index(N)
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if N <= 6:
        return LN2
    # log N - (1 - 2/N) log(N-1), grouped to avoid cancellation at large N
    return math.log(N) - math.log(N - 1) + (2.0 / N) * math.log(N - 1)


def minimizer_states(N: int):
    """All pure states attaining min_face_entropy(N).

    For N <= 6 these are the N(N-1)/2 pair states (e_j - e_k)/sqrt(2); for
    N > 6 the N placements of the large component in
    ((N-1)a, -a, ..., -a) with a = (N(N-1))^{-1/2}.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    return list(_minimizers(N))


def _minimizers(N: int):
    """The states of minimizer_states(N), in its order, one at a time."""
    if N <= 6:
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
    return math.log(N) - (1.0 - 2.0 * n / N) * math.log(N / n - 1.0)


@dataclass(frozen=True)
class StationaryRoots:
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
    lam = float(lam)
    mu = float(mu)
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise ValueError(f"multipliers must be finite, got lam={lam!r}, mu={mu!r}")
    if lam == 0.0:
        raise ValueError("lam must be nonzero (zero gives the pair-state family)")
    zeta = 0.5 * abs(lam) * math.exp(-0.5 * mu)
    x1 = lam / (2.0 * lambert_w0(zeta))
    x2 = x3 = None
    if zeta <= _INV_E:
        x2 = lam / (2.0 * lambert_w0(-zeta))
        x3 = lam / (2.0 * lambert_wm1(-zeta))
    return StationaryRoots(lam=lam, mu=mu, zeta=zeta, x1=x1, x2=x2, x3=x3)


def root_square_sum(zeta: float) -> float:
    """exp(2 W0(z)) + exp(2 W0(-z)) + exp(2 W-1(-z)) for 0 < z <= 1/e.

    This is the sum of squares of the three stationary roots with the
    common exp(mu) factor divided out; it tends to 2 as zeta -> 0 and
    increases on the domain.
    """
    zeta = float(zeta)
    if not 0.0 < zeta <= _INV_E * (1.0 + 1e-12):
        raise ValueError(f"zeta = {zeta!r} outside (0, 1/e]")
    zeta = min(zeta, _INV_E)
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


def _face_objective(sq: np.ndarray) -> np.ndarray:
    # the output entropy, read from each row of squared amplitudes
    return eta_array(sq).sum(axis=-1)


def _descend(Y: np.ndarray, H: np.ndarray):
    """Conjugate-gradient descent of the output entropy of each row of
    A = YH over the unit sphere of its row of Y; returns A and the values.

    The tangent part of the gradient -2a(log a^2 + 1) gives Polak-Ribiere+
    directions d.  On the circle y cos t + e sin t, with e = d/|d| and
    b = eH, each a_k^2 is P + Q cos 2t + R sin 2t, so the rotation line
    search finds t over the period pi.  A row steps only when that lowers
    its value, and stops once a step gains at most 1e-12, once its tangent
    gradient is exactly 0, or after 200 steps.  Products with H are
    einsums, so a row's path does not depend on its batch.
    """
    A = np.einsum("bk,kn->bn", Y, H)
    f = _face_objective(A * A)
    D, G = np.zeros_like(Y), np.ones_like(Y)  # D = 0 makes the first direction -g
    active = np.full(Y.shape[0], Y.shape[1] > 1)  # N = 2: the sphere is two points
    for _ in range(200):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        y, a, sq = Y[idx], A[idx], A[idx] * A[idx]
        grad = -2.0 * a * (np.log(sq, out=np.zeros(sq.shape), where=sq > 1e-300) + 1.0)
        g = np.einsum("bn,kn->bk", grad, H)
        g -= np.einsum("bk,bk->b", g, y)[:, None] * y
        beta = np.einsum("bk,bk->b", g, g - G[idx]) / np.einsum("bk,bk->b", G[idx], G[idx])
        d = -g + np.maximum(beta, 0.0)[:, None] * D[idx]
        d = np.where((np.einsum("bk,bk->b", d, g) >= 0.0)[:, None], -g, d)
        size = np.sqrt(np.einsum("bk,bk->b", d, d))[:, None]
        stationary = size[:, 0] == 0.0  # the tangent gradient is exactly 0
        if stationary.any():
            active[idx[stationary]] = False
            keep = ~stationary
            idx, y, a, sq, g, d, size = idx[keep], y[keep], a[keep], sq[keep], g[keep], d[keep], size[keep]
        e = d / size
        b = np.einsum("bk,kn->bn", e, H)
        # y and -y have the same squared amplitudes: the period is pi
        t, new, current = rotation_line_search(
            0.5 * (sq + b * b), 0.5 * (sq - b * b), a * b, np.ones(H.shape[1]), math.pi
        )
        c, s = np.cos(t)[:, None], np.sin(t)[:, None]
        step = new < current
        y_new = c * y + s * e
        Y[idx[step]] = y_new[step] / np.sqrt(np.einsum("bk,bk->b", y_new[step], y_new[step]))[:, None]
        A[idx] = np.einsum("bk,kn->bn", Y[idx], H)
        f_new = _face_objective(A[idx] * A[idx])
        active[idx] = step & (f[idx] - f_new > 1e-12)
        f[idx], D[idx], G[idx] = f_new, (c * e - s * y) * size, g
    return A, f


def brute_force_min_face(N: int, restarts: int, seed: int = 0):
    """Minimize the output entropy over the zero-sum unit sphere from random
    restarts, each drawn by a sub-seeded counter generator, by the descent
    of _descend: it turns the reduced (in-hyperplane) coordinates y of
    a = yH along great circles, so both constraints hold at every step.
    Returns (value, argmin vector)."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    restarts = check_count("restarts", restarts)
    seed = check_seed(seed)
    Y = np.empty((restarts, N - 1))
    for k in range(restarts):
        g = Generator(Philox(key=np.array([seed, k], dtype=np.uint64)))
        y = g.standard_normal(N - 1)
        Y[k] = y / np.linalg.norm(y)
    A, f = _descend(Y, zero_sum_basis(N))
    best = int(np.argmin(f))
    return float(f[best]), A[best]
