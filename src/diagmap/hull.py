"""Lower convex envelope of a sampled 1-D function, plus tangent location
from an external anchor point (the two operations behind the linear pieces
of the entanglement curve)."""

from dataclasses import dataclass

import numpy as np

TANGENT_TOL = 1e-12


@dataclass(frozen=True)
class SampledCurve:
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or ys.shape != xs.shape:
            raise ValueError("need at least two (x, y) samples of equal length")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("samples must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("xs must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


@dataclass(frozen=True)
class HullResult:
    hull_ys: np.ndarray


def _cross(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def lower_convex_hull(curve: SampledCurve) -> HullResult:
    """Largest convex function not above the samples, evaluated back on xs.

    Vertices come from an Andrew monotone chain over the sample points;
    between vertices the hull is linear.
    """
    xs, ys = curve.xs, curve.ys
    n = xs.size
    stack = []
    for i in range(n):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            if _cross(xs[j], ys[j], xs[k], ys[k], xs[i], ys[i]) <= 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    hx = xs[stack]
    hy = ys[stack]
    return HullResult(hull_ys=np.interp(xs, hx, hy))


def tangent_from_point(f, x0: float, f0: float, bracket, *, df) -> float:
    """Abscissa t where the line through (x0, f0) touches f tangentially.

    Solves g(t) = f'(t) (t - x0) - (f(t) - f0) = 0, with f' given as df,
    by bisection on the bracket to width TANGENT_TOL followed by a few
    Newton steps whose slope g' is a central difference (it steers the
    steps; the root is as accurate as g).  Raises ValueError when g does
    not change sign on the bracket.
    """

    def g(t: float) -> float:
        return df(t) * (t - x0) - (f(t) - f0)

    lo, hi = float(bracket[0]), float(bracket[1])
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        raise ValueError(f"tangency condition has no sign change on {bracket!r}")
    while hi - lo > TANGENT_TOL:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            lo = hi = mid
            break
        if glo * gm < 0.0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    t = 0.5 * (lo + hi)
    for _ in range(3):
        h = 1e-6 * (1.0 + abs(t))
        gp = (g(t + h) - g(t - h)) / (2.0 * h)
        if gp == 0.0:
            break
        step = g(t) / gp
        t -= step
    return t
