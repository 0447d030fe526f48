"""What the roof search and the face search share: the Riemannian BFGS
engine both run (stiefel_bfgs), the unit-sphere objective both minimize
(sphere_functions; the roof's pricing adds a quadratic term), the checks
of their seed and budgets and their random streams; and the face search
itself (brute_force_min_face), the oracle that checks face_minimum's
closed form on the zero-sum unit sphere.  Of the closed forms, this module
imports only `entropy`.

Every product acts on one row at a time, so no row's path depends on its
batch (a 2-D matmul's blocking would): stacked (3-D) matmuls with several
columns and for the inverse-Hessian products, einsums for row dot products
and with one column (hundreds of short rows: a BLAS call per row costs more).
"""

import math
import operator

import numpy as np

from .entropy import TINY, _check_dimension
from .states import floored_log

POLISH_ITERS = 400
# a row stops once the step it would try predicts a gain of at most POLISH_TOL
POLISH_TOL = 1e-15
ARMIJO = 1e-4
# the face search's default budget: this many restarts per dimension N
RESTARTS_PER_N = 50


def _project(W, G):
    """G - W sym(W^H G), with one column G - W Re(w^H g): each G, of one or
    more stacked matrices per row of W, projected to the tangent space at W."""
    if W.shape[-1] == 1:
        return G - W * np.einsum("...i,...i->...", W[..., 0].conj(), G[..., 0]).real[..., None, None]
    WG = W.conj().swapaxes(-1, -2) @ G
    return G - W @ (0.5 * (WG + WG.conj().swapaxes(-1, -2)))


def _retract(A):
    """Polar factor A (A^H A)^(-1/2) of each full-rank matrix A: with one
    column A / |A|, else A (V lam^(-1/2) V^H) from the eigenpairs of A^H A."""
    if A.shape[-1] == 1:
        return A / np.sqrt(np.einsum("bi,bi->b", A[..., 0].conj(), A[..., 0]).real)[:, None, None]
    lam, V = np.linalg.eigh(A.conj().swapaxes(-1, -2) @ A)
    return A @ ((V / np.sqrt(lam)[:, None, :]) @ V.conj().swapaxes(-1, -2))


def _flat(X):
    """Each row of X as a real vector, a complex entry as a float pair."""
    return np.ascontiguousarray(X).reshape(len(X), -1).view(float)


def _armijo(W, f, G, funcs, d, slope, step):
    """One try of each row's step along the tangent direction d, taken where
    f drops by at least ARMIJO times the predicted gain; returns W, f, G and
    the step, each the new one where taken (else the step halves), and where."""
    Wc = _retract(W + step[:, None, None] * d)
    fc, Gc = funcs(Wc)
    ok = (fc < f) & (fc <= f + ARMIJO * step * slope)
    if np.count_nonzero(ok) == len(ok):
        return Wc, fc, Gc, step, ok
    at = ok[:, None, None]
    return np.where(at, Wc, W), np.where(ok, fc, f), np.where(at, Gc, G), np.where(ok, step, 0.5 * step), ok


def stiefel_bfgs(W, funcs, max_iters: int = POLISH_ITERS):
    """Riemannian BFGS on the Stiefel manifold (Edelman, Arias and Smith,
    SIAM J. Matrix Anal. Appl. 20, 303 (1998)), batched over the leading
    axis of W (column-orthonormal matrices).  funcs(W) returns each row's
    value f and Euclidean gradient G, treating rows independently; it runs
    on the starts and once per trial point, and a row that keeps its point
    keeps its G.  A row steps along the tangent part of -H g, g its
    projected gradient and H its dense inverse-Hessian estimate over the n
    real coordinates of W.  With H = 0 (at the start, or once H gives no
    descent) it steps along -gamma g, and its next curvature pair (s, y)
    sets H = (s.y / y.y) I; each pair with s.y and y.y above TINY makes a
    BFGS update.  Each iteration makes one try of the step on a polar
    retraction (_armijo); a row where it fails keeps its point, H and g and
    tries the halved step along the same direction next.  A row stops once
    the step it would try predicts a gain of at most POLISH_TOL (at once
    where that gain is NaN), and leaves the batch; max_iters caps the
    iterations.  No row ends above its start.  H holds n^2 floats per row.
    Returns W, the values, and for each row the iterations it ran (max_iters
    for a row still running at the cap) and whether the cap stopped it."""
    W, (f, G) = W.copy(), funcs(W)
    # the rows still running: idx, and their w, fw, G, g, H, gamma and next
    # step; gf, g as real vectors, is read only before the rows are compacted
    idx, w, fw, g = np.arange(len(f)), W, f, _project(W, G)
    gf = _flat(g)
    n = gf.shape[1]
    H, gamma, step, capped = np.zeros((len(f), n, n)), np.ones(len(f)), np.ones(len(f)), np.zeros(len(f), dtype=bool)
    iters = np.full(len(f), max_iters)
    for it in range(max_iters):
        d = _project(w, -(H @ gf[:, :, None])[:, :, 0].view(w.dtype).reshape(w.shape))
        slope = np.einsum("bi,bi->b", gf, _flat(d))
        fresh = ~(slope < 0.0)
        if np.count_nonzero(fresh):
            H[fresh], d[fresh] = 0.0, -gamma[fresh, None, None] * g[fresh]
            slope[fresh] = np.einsum("bi,bi->b", gf[fresh], _flat(d[fresh]))
        stop = ~(step * slope < -POLISH_TOL)
        stops = np.count_nonzero(stop)
        if stops:
            W[idx[stop]], f[idx[stop]], iters[idx[stop]] = w[stop], fw[stop], it
            if stops == len(stop):
                return W, f, iters, capped
            run = ~stop
            idx, w, fw, G, g, H, gamma = idx[run], w[run], fw[run], G[run], g[run], H[run], gamma[run]
            step, d, slope, fresh = step[run], d[run], slope[run], fresh[run]
        # a row that fails its try keeps w, G and g, and tries the half next
        w, fw, G, step, took = _armijo(w, fw, G, funcs, d, slope, step)
        if it + 1 == max_iters:
            break  # nothing below is read after the last iteration
        P = _project(w, np.array([G, step[:, None, None] * d, g]))
        gn, s, gp = P.reshape(3, len(w), -1).view(float)
        g, gf, y = P[0], gn, gn - gp
        step = np.where(took, 1.0, step)
        sy, yy = np.einsum("bi,bi->b", s, y), np.einsum("bi,bi->b", y, y)
        # a pair is kept with positive curvature, where 1 / sy and sy / yy are finite
        keep = took & (sy > TINY) & (yy > TINY)
        rho = np.divide(1.0, sy, out=np.zeros(len(sy)), where=keep)
        np.divide(sy, yy, out=gamma, where=keep)
        reset = keep & fresh
        if np.count_nonzero(reset):
            H[reset] = gamma[reset, None, None] * np.eye(n)
        # (I - rho s y^T) H (I - rho y s^T) + rho s s^T = H + [s t] [t s]^T; t = 0 at rho = 0
        u = (H @ y[:, :, None])[:, :, 0]
        t = (0.5 * rho * (rho * np.einsum("bi,bi->b", y, u) + 1.0))[:, None] * s - rho[:, None] * u
        H += np.array([s, t]).transpose(1, 2, 0) @ np.array([t, s]).transpose(1, 0, 2)
    W[idx], f[idx] = w, fw
    # a row that took its last try is capped; one that failed it, if its halved step still predicts a gain
    capped[idx] = step * slope < -POLISH_TOL
    return W, f, iters, capped


def sphere_functions(B):
    """funcs(C) of stiefel_bfgs for the output entropy S(D(psi)) of psi = Bc,
    B (N x r) with orthonormal columns, c unit columns of shape (r, 1): the
    value and the Euclidean gradient B^H (-2 psi (log |psi|^2 + 1)), zero
    entries of psi adding nothing; the products with B are einsums."""

    def funcs(C):
        psi = np.einsum("ij,bj->bi", B, C[:, :, 0])
        sq = (psi * psi.conj()).real
        lg = floored_log(sq)
        return (-sq * lg).sum(axis=-1), np.einsum("ij,bi->bj", B.conj(), -2.0 * psi * (lg + 1.0))[:, :, None]

    return funcs


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


def check_seed(seed) -> int:
    """An integer seed in [0, 2^64), the range of a Philox key word."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    return seed


def stream_rng(seed: int, stream: int) -> "np.random.Generator":
    """The generator of one stream of a seed: Philox keyed by (seed, stream).
    The seed must have passed check_seed.  numpy.random is imported here, so
    that the CLI's commands that draw nothing never load it."""
    from numpy.random import Generator, Philox

    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))


def check_count(name: str, value) -> int:
    """A search budget (restarts, or stiefel_bfgs iterations, each one Armijo try): an integer of at least 1."""
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value
