"""What the roof and face-minimum searches share: the Riemannian BFGS
engine both run (stiefel_bfgs), the checks of their seed and budgets and
their random streams; and the rotation line search of the roof's descent.

The roof's descent turns two rows by a Givens or phase rotation through an
angle t, and under such a turn every squared modulus is exactly
s = K0 + K1 cos 2t + K2 sin 2t (Cardoso and Souloumiac, SIAM J. Matrix
Anal. Appl. 17, 161 (1996)), so the search probes squared moduli and
rotates nothing.  With u = s - K0, s' = 2 (K2 cos 2t - K1 sin 2t) and
R = hypot(K1, K2), one logarithm gives the objective sum_c w_c eta(s_c),
its slope -sum w (log s + 1) s' and its curvature
sum w (4 (log s + 1) u - s'^2 / s), where s'^2 = 4 (R + u)(R - u); these
drive a safeguarded Newton iteration.  The symmetric-curve angle
minimization takes only INVPHI: its scalar loop has its own stopping rule
and bracket.
"""

import math
import operator

import numpy as np
from numpy.random import Generator, Philox

from .entropy import TINY, eta_array

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# swapping the two rows of a pair leaves their terms unchanged: t -> t + pi/2
PERIOD = 0.5 * math.pi
SCAN_POINTS = 24
NEWTON_STEPS = 40
# A row stops once a Newton step would gain at most GAIN_TOL, or once no
# quadratic with its slope and curvature could gain more across its bracket.
GAIN_TOL = 1e-14

POLISH_ITERS = 400
# a row stops once its step predicts a gain of at most POLISH_TOL
POLISH_TOL = 1e-15
ARMIJO = 1e-4
BACKTRACKS = 40


def _eta_sum(sq, w):
    # eta_array(sq) @ w, summed by einsum: matmul picks its BLAS kernel by
    # shape, so a row's value would depend on which others share its batch
    return np.einsum("...c,c->...", eta_array(sq), w)


def _taylor(K0, K1, K2, R, w, t):
    """The objective, its slope and its curvature in t, from one log."""
    c = np.cos(2.0 * t)[..., None]
    s = np.sin(2.0 * t)[..., None]
    u = K1 * c + K2 * s
    # the log is taken at max(s, TINY): where a modulus touches zero its log
    # stays very negative, so the slope keeps its sign and the curvature
    # grows, rather than reading log s = 0 as eta_array does
    sq = np.maximum(K0 + u, TINY)
    lg = np.log(sq)
    lg1 = lg + 1.0
    # s'^2 / s = 4 (R + u)(R - u) / s, where (R + u) / s <= 1 up to round-off
    ratio = np.minimum((R + u) / sq, 1.0)
    f = np.einsum("...c,c->...", sq * lg, -w)
    g = np.einsum("...c,c->...", lg1 * (K2 * c - K1 * s), -2.0 * w)
    h = np.einsum("...c,c->...", lg1 * u - ratio * (R - u), 4.0 * w)
    return f, g, h


def _newton(x, g, h, lo, hi):
    """The Newton point x - g/h, and where h > 0 and it lies strictly inside
    (lo, hi).  A rejected probe becomes a bracket end, so the same Newton
    point is never probed twice.  |g| stays far below 1e8, so g / TINY is
    finite."""
    xn = x - g / np.maximum(h, TINY)
    return (h > 0.0) & (lo < xn) & (xn < hi), xn


def rotation_line_search(K0, K1, K2, w):
    """Minimize F(t) = sum_c w_c eta(K0 + K1 cos 2t + K2 sin 2t) over t for
    every leading index of the (..., C) coefficients at once; F must have
    the period PERIOD.

    A scan of SCAN_POINTS angles over one period picks the best point x and
    a bracket one scan step either side.  Each iteration probes the Newton
    step x - g/h where the curvature h is positive and the step lands inside
    the bracket, and a golden-section step into the larger side of the
    bracket otherwise.  A probe replaces x only if its value is lower;
    otherwise it becomes a bracket end.  A row stops when its predicted gain
    g^2/2h, or the bound |g| W + |h| W^2 / 2 on the gain left in its bracket
    of width W, is at most GAIN_TOL, and then takes its last Newton step
    without a comparison; NEWTON_STEPS caps the iterations.  Every row
    follows its own path, whatever shares its batch.

    Returns the angles, F at them and F(0), both from eta_array.
    """
    step = PERIOD / SCAN_POINTS
    scan = step * np.arange(SCAN_POINTS) - 0.5 * PERIOD
    c2, s2 = np.cos(2.0 * scan)[:, None], np.sin(2.0 * scan)[:, None]
    x = scan[np.argmin(_eta_sum(K0[..., None, :] + K1[..., None, :] * c2 + K2[..., None, :] * s2, w), axis=-1)]
    lo, hi = x - step, x + step
    R = np.hypot(K1, K2)
    f, g, h = _taylor(K0, K1, K2, R, w, x)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(NEWTON_STEPS):
        newton, xn = _newton(x, g, h, lo, hi)
        width = hi - lo
        done |= ((h > 0.0) & (g * g <= 2.0 * GAIN_TOL * h)) | (
            np.abs(g) * width + 0.5 * np.abs(h) * width * width <= GAIN_TOL
        )
        if done.all():
            break
        far = np.where(hi - x > x - lo, hi, lo)
        probe = np.where(newton, xn, x + (1.0 - INVPHI) * (far - x))
        fp, gp, hp = _taylor(K0, K1, K2, R, w, probe)
        keep = (fp < f) & ~done
        # a kept probe leaves x as the bracket end behind it; a rejected one
        # is itself the bracket end on its side
        end = np.where(keep, x, probe)
        right = probe > x
        lo = np.where(~done & (keep == right), end, lo)
        hi = np.where(~done & (keep != right), end, hi)
        x, f, g, h = (np.where(keep, new, old) for new, old in ((probe, x), (fp, f), (gp, g), (hp, h)))
    newton, xn = _newton(x, g, h, lo, hi)
    t = np.where(done & newton, xn, x)
    t2 = 2.0 * t[..., None]
    return t, _eta_sum(K0 + K1 * np.cos(t2) + K2 * np.sin(t2), w), _eta_sum(K0 + K1, w)


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


def stiefel_bfgs(W, value, egrad):
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
    POLISH_ITERS caps the iterations.  No row ends above its start, and
    every product is an einsum, so a row's path does not depend on its
    batch, provided value and egrad treat rows independently.  H holds n^2
    floats per row (the 20 pairs it replaced held 40 n), slower past n of
    about 30: on a 2-core Xeon, 40 starts on random complex 4 x 4 and 5 x 5
    states (n = 128, 250) took 0.58 and 3.6 s against 0.24 and 0.74 s, and
    39 MB against 7 MB at 5 x 5; the face search (n = N - 1) took 0.68
    times as long for N <= 16 and 1.07 times for N = 17..32.  Returns W,
    the values, the iterations run and whether the cap stopped a row."""
    W, f = W.copy(), value(W)
    # the rows still running: idx, and their w, fw, g, H, gamma and next step
    idx, w, fw = np.arange(len(f)), W, f
    g = _project(w, egrad(w))
    n = _flat(g).shape[1]
    H, gamma, step = np.zeros((len(f), n, n)), np.ones(len(f)), np.ones(len(f))
    for it in range(POLISH_ITERS):
        d = _project(w, -np.einsum("bij,bj->bi", H, _flat(g)).view(w.dtype).reshape(w.shape))
        fresh = ~(_inner(g, d) < 0.0)
        H[fresh], d[fresh] = 0.0, -gamma[fresh, None, None] * g[fresh]
        slope = _inner(g, d)
        stop = (step < 2.0 ** (1 - BACKTRACKS)) | (-slope <= POLISH_TOL)
        if stop.any():
            W[idx[stop]], f[idx[stop]] = w[stop], fw[stop]
            if stop.all():
                return W, f, it, False
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
    return W, f, POLISH_ITERS, not (step < 2.0 ** (1 - BACKTRACKS)).all()


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
