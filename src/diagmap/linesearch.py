"""What the roof and face-minimum searches share: the Riemannian BFGS
engine both run (stiefel_bfgs), the unit-sphere objective both minimize
(sphere_functions; the roof's pricing adds a quadratic term), the checks
of their seed and budgets and their random streams.
"""

import operator

import numpy as np
from numpy.random import Generator, Philox

from .entropy import TINY, eta_array

POLISH_ITERS = 400
# a row stops once its step predicts a gain of at most POLISH_TOL
POLISH_TOL = 1e-15
ARMIJO = 1e-4
BACKTRACKS = 40


def _inner(A, B):
    """Real inner product Re tr(A^H B) of each pair of stacked matrices."""
    return np.einsum("bij,bij->b", A.conj(), B).real


def _project(W, G):
    """G - W sym(W^H G): each G projected to the tangent space of the
    Stiefel manifold at W."""
    WG = np.einsum("bji,bjl->bil", W.conj(), G)
    return G - np.einsum("bji,bil->bjl", W, 0.5 * (WG + WG.conj().swapaxes(-1, -2)))


def _retract(A):
    """Polar factor A (A^H A)^(-1/2) of each full-rank matrix A."""
    lam, V = np.linalg.eigh(np.einsum("bji,bjl->bil", A.conj(), A))
    AV = np.einsum("bji,bil->bjl", A, V) / np.sqrt(lam)[:, None, :]
    return np.einsum("bjl,bil->bji", AV, V.conj())


def _flat(X):
    """Each row of X as a real vector, a complex entry as a float pair."""
    return np.ascontiguousarray(X).reshape(len(X), -1).view(float)


def _armijo(W, f, value, d, slope, step):
    """One try of each row's step along the tangent direction d, taken where
    f drops by at least ARMIJO times the predicted gain; returns W, f and the
    step, each the new one where taken (else the step halves), and where."""
    Wc = _retract(W + step[:, None, None] * d)
    fc = value(Wc)
    ok = (fc < f) & (fc <= f + ARMIJO * step * slope)
    return np.where(ok[:, None, None], Wc, W), np.where(ok, fc, f), np.where(ok, step, 0.5 * step), ok


def stiefel_bfgs(W, value, egrad, max_iters: int = POLISH_ITERS):
    """Riemannian BFGS on the Stiefel manifold (Edelman, Arias and Smith,
    SIAM J. Matrix Anal. Appl. 20, 303 (1998)), batched over the leading
    axis of W (column-orthonormal matrices), from each row's objective
    value(W) and Euclidean gradient egrad(W).  A row steps along the tangent
    part of -H g, g its projected gradient and H its dense inverse-Hessian
    estimate over the n real coordinates of W.  With H = 0 (at the start,
    or once H gives no descent) it steps along -gamma g, and its next
    curvature pair (s, y) sets H = (s.y / y.y) I; each pair with s.y and
    y.y above TINY makes a BFGS update.  Each iteration tries the step on a
    polar retraction and, where that fails, its half (_armijo); a row where
    both fail keeps its point, H and g and goes on from the halved step.  A
    row stops after BACKTRACKS failed tries in a row, or once its unit step
    predicts a gain of at most POLISH_TOL, and leaves the batch;
    max_iters caps the iterations.  No row ends above its start, and
    every product is an einsum, so a row's path does not depend on its
    batch, provided value and egrad treat rows independently.  H holds n^2
    floats per row.  Returns W, the values, the iterations run and, for
    each row, whether the cap stopped it."""
    W, f = W.copy(), value(W)
    # the rows still running: idx, and their w, fw, g, H, gamma and next step
    idx, w, fw = np.arange(len(f)), W, f
    g = _project(w, egrad(w))
    n = _flat(g).shape[1]
    H, gamma, step = np.zeros((len(f), n, n)), np.ones(len(f)), np.ones(len(f))
    capped = np.zeros(len(f), dtype=bool)
    for it in range(max_iters):
        d = _project(w, -np.einsum("bij,bj->bi", H, _flat(g)).view(w.dtype).reshape(w.shape))
        fresh = ~(_inner(g, d) < 0.0)
        H[fresh], d[fresh] = 0.0, -gamma[fresh, None, None] * g[fresh]
        slope = _inner(g, d)
        stop = (step < 2.0 ** (1 - BACKTRACKS)) | (-slope <= POLISH_TOL)
        if stop.any():
            W[idx[stop]], f[idx[stop]] = w[stop], fw[stop]
            if stop.all():
                return W, f, it, capped
            run = ~stop
            idx, w, fw, g, H, gamma = idx[run], w[run], fw[run], g[run], H[run], gamma[run]
            step, d, slope, fresh = step[run], d[run], slope[run], fresh[run]
        # the step, then its half; a row that took neither keeps w and g
        w, fw, step, took = _armijo(w, fw, value, d, slope, step)
        i = np.nonzero(~took)[0]
        if i.size:
            w[i], fw[i], step[i], took[i] = _armijo(w[i], fw[i], value, d[i], slope[i], step[i])
        gn = _project(w, egrad(w))
        s, y = _flat(_project(w, step[:, None, None] * d)), _flat(gn - _project(w, g))
        g, step = gn, np.where(took, 1.0, step)
        sy, yy = np.einsum("bi,bi->b", s, y), np.einsum("bi,bi->b", y, y)
        # a pair is kept with positive curvature, where 1 / sy and sy / yy are finite
        keep = took & (sy > TINY) & (yy > TINY)
        rho = np.where(keep, 1.0 / np.where(keep, sy, 1.0), 0.0)
        gamma = np.where(keep, sy / np.where(keep, yy, 1.0), gamma)
        H[keep & fresh] = gamma[keep & fresh, None, None] * np.eye(n)
        # (I - rho s y^T) H (I - rho y s^T) + rho s s^T = H + s t^T + t s^T; t = 0 at rho = 0
        u = np.einsum("bij,bj->bi", H, y)
        t = (0.5 * rho * (rho * np.einsum("bi,bi->b", y, u) + 1.0))[:, None] * s - rho[:, None] * u
        H += np.einsum("bi,bj->bij", s, t)
        H += np.einsum("bi,bj->bij", t, s)
    W[idx], f[idx] = w, fw
    capped[idx] = ~(step < 2.0 ** (1 - BACKTRACKS))
    return W, f, max_iters, capped


def sphere_functions(B):
    """The output entropy S(D(psi)) of psi = Bc, B (N x r) with orthonormal
    columns, for unit columns c of shape (r, 1) on V(r, 1), and its
    Euclidean gradient B^H (-2 psi (log |psi|^2 + 1)), zero entries of psi
    adding nothing.  Products with B are einsums, so a row's values do not
    depend on its batch."""

    def value(C):
        psi = np.einsum("ij,bj->bi", B, C[:, :, 0])
        return eta_array((psi * psi.conj()).real).sum(axis=-1)

    def egrad(C):
        psi = np.einsum("ij,bj->bi", B, C[:, :, 0])
        sq = (psi * psi.conj()).real
        lg = np.log(sq, out=np.zeros(sq.shape), where=sq > TINY)
        return np.einsum("ij,bi->bj", B.conj(), -2.0 * psi * (lg + 1.0))[:, :, None]

    return value, egrad


def check_seed(seed) -> int:
    """An integer seed in [0, 2^64), the range of a Philox key word."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    return seed


def stream_rng(seed: int, stream: int) -> Generator:
    """The generator of one stream of a seed: Philox keyed by (seed, stream).
    The seed must have passed check_seed."""
    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))


def check_count(name: str, value) -> int:
    """A search budget (restarts, sweeps): an integer of at least 1."""
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value
