"""Minimal output entropy of the diagonal map on the face of states
supported orthogonally to the uniform vector.

Real pure states on that face are unit vectors with zero component sum.
The closed-form minimum is log 2 (pair states) up to N = 6 and switches to
the one-vs-rest family for N > 6; a Lagrange analysis via the Lambert W
function classifies the stationary amplitude values, and a projected
coordinate-descent search provides an independent numerical check.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .entropy import LN2, eta_array
from .lambert import lambert_w0, lambert_wm1
from .linesearch import golden_vec

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
    out = []
    if N <= 6:
        for j in range(N):
            for k in range(j + 1, N):
                v = np.zeros(N)
                v[j] = 1.0 / math.sqrt(2.0)
                v[k] = -1.0 / math.sqrt(2.0)
                out.append(v)
    else:
        a = 1.0 / math.sqrt(N * (N - 1.0))
        for j in range(N):
            v = np.full(N, -a)
            v[j] = (N - 1.0) * a
            out.append(v)
    return out


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


def _face_objective(A: np.ndarray) -> np.ndarray:
    return eta_array(A * A).sum(axis=-1)


def brute_force_min_face(N: int, restarts: int, seed: int = 0):
    """Minimize the output entropy over the zero-sum unit sphere by random
    restarts and coordinate descent.

    Each restart draws an independent start from a sub-seeded counter
    generator.  The descent rotates pairs of coordinates of the reduced
    (in-hyperplane) representation, so both constraints hold exactly at
    every step; each rotation angle comes from a scanned and golden-refined
    line search.  Returns (value, argmin vector).
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    H = zero_sum_basis(N)
    Y = np.empty((restarts, N - 1))
    for k in range(restarts):
        g = Generator(Philox(key=np.array([seed, k], dtype=np.uint64)))
        y = g.standard_normal(N - 1)
        Y[k] = y / np.linalg.norm(y)
    A = Y @ H
    f = _face_objective(A)
    pairs = [(p, q) for p in range(N - 1) for q in range(p + 1, N - 1)]
    if pairs:
        scan = np.linspace(-math.pi, math.pi, 24, endpoint=False)
        cos_scan = np.cos(scan)
        sin_scan = np.sin(scan)
        step = scan[1] - scan[0]
        active = np.ones(restarts, dtype=bool)
        for _ in range(200):
            f_before = f.copy()
            for p, q in pairs:
                idx = np.nonzero(active)[0]
                if idx.size == 0:
                    break
                yp, yq = Y[idx, p], Y[idx, q]
                U = yp[:, None] * H[p][None, :] + yq[:, None] * H[q][None, :]
                V = yp[:, None] * H[q][None, :] - yq[:, None] * H[p][None, :]
                base = A[idx]

                def obj(t):
                    At = base + (np.cos(t) - 1.0)[:, None] * U + np.sin(t)[:, None] * V
                    return _face_objective(At)

                cand = (
                    base[:, None, :]
                    + (cos_scan - 1.0)[None, :, None] * U[:, None, :]
                    + sin_scan[None, :, None] * V[:, None, :]
                )
                coarse = eta_array(cand * cand).sum(axis=2)
                best = np.argmin(coarse, axis=1)
                t = golden_vec(obj, scan[best] - step, scan[best] + step)
                At = base + (np.cos(t) - 1.0)[:, None] * U + np.sin(t)[:, None] * V
                ft = _face_objective(At)
                improved = ft < f[idx]
                gidx = idx[improved]
                if gidx.size:
                    tb = t[improved]
                    cb, sb = np.cos(tb), np.sin(tb)
                    y_new_p = cb * Y[gidx, p] - sb * Y[gidx, q]
                    y_new_q = sb * Y[gidx, p] + cb * Y[gidx, q]
                    Y[gidx, p], Y[gidx, q] = y_new_p, y_new_q
                    A[gidx] = At[improved]
                    f[gidx] = ft[improved]
            active &= (f_before - f) > 1e-12
            if not active.any():
                break
    best = int(np.argmin(f))
    a = A[best]
    return float(_face_objective(a[None, :])[0]), a
