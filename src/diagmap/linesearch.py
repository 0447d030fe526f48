"""The rotation line search shared by the roof and face-minimum searches,
the checks of their seed and budgets, and their random streams.

Both searches turn unit vectors by an angle t (two rows by a Givens or
phase rotation for the roof, a point along a great circle for the face),
and under such a turn every squared modulus is exactly
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

SCAN_POINTS = 24
NEWTON_STEPS = 40
# A row stops once a Newton step would gain at most GAIN_TOL, or once no
# quadratic with its slope and curvature could gain more across its bracket.
GAIN_TOL = 1e-14


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


def rotation_line_search(K0, K1, K2, w, period):
    """Minimize F(t) = sum_c w_c eta(K0 + K1 cos 2t + K2 sin 2t) over t for
    every leading index of the (..., C) coefficients at once; F must have
    the given period.

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
    step = period / SCAN_POINTS
    scan = step * np.arange(SCAN_POINTS) - 0.5 * period
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
