"""The rotation line search shared by the roof and face-minimum searches,
and the checks of their seed and budgets.

Both searches turn unit vectors by an angle t (two rows by a Givens or
phase rotation for the roof, a point along a great circle for the face),
and under such a turn every squared modulus is exactly
K0 + K1 cos 2t + K2 sin 2t (Cardoso and Souloumiac, SIAM J. Matrix Anal.
Appl. 17, 161 (1996)), so the search probes squared moduli and rotates
nothing.  The symmetric-curve angle minimization takes only INVPHI: its
scalar loop has its own stopping rule and bracket.
"""

import math
import operator

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_STEPS = 45

# The 24-point angle scan over [-pi, pi), tabulated at 2t for the squared
# moduli; a search refines its best point on one SCAN_STEP either side.
SCAN = np.linspace(-math.pi, math.pi, 24, endpoint=False)
SCAN_STEP = SCAN[1] - SCAN[0]
_COS2 = np.cos(2.0 * SCAN)[:, None]
_SIN2 = np.sin(2.0 * SCAN)[:, None]


def golden_vec(obj, lo, hi) -> np.ndarray:
    """Vectorized golden-section minimization on per-row brackets."""
    c = hi - INVPHI * (hi - lo)
    d = lo + INVPHI * (hi - lo)
    fc, fd = obj(c), obj(d)
    for _ in range(GOLDEN_STEPS):
        left = fc < fd  # the minimum lies in [lo, d]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        probe = np.where(left, hi - INVPHI * (hi - lo), lo + INVPHI * (hi - lo))
        fp = obj(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return 0.5 * (lo + hi)


def rotation_line_search(K0, K1, K2, terms):
    """Minimize terms(K0 + K1 cos 2t + K2 sin 2t), with terms mapping
    (..., C) to (...), over t for every leading index at once: the angle
    scan, then golden_vec on the bracket around its best point.  Returns
    the angles, the values at them and the values at t = 0."""

    def probe(t):
        t2 = 2.0 * t[..., None]
        return terms(K0 + K1 * np.cos(t2) + K2 * np.sin(t2))

    coarse = terms(K0[..., None, :] + K1[..., None, :] * _COS2 + K2[..., None, :] * _SIN2)
    best = SCAN[np.argmin(coarse, axis=-1)]
    t = golden_vec(probe, best - SCAN_STEP, best + SCAN_STEP)
    return t, probe(t), terms(K0 + K1)


def check_seed(seed) -> int:
    """An integer seed in [0, 2^64), the range of a Philox key word."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    return seed


def check_count(name: str, value) -> int:
    """A search budget (restarts, sweeps): an integer of at least 1."""
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value
