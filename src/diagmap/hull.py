"""Lower convex envelope of a sampled 1-D function, plus tangent location
from an external anchor point (the two operations behind the linear pieces
of the entanglement curve), and the one bisection the curve layer runs:
_bisect finds both the tangency point and the angle transition."""

from dataclasses import dataclass

import numpy as np


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


def _bisect(g, lo: float, hi: float) -> float:
    """A zero of g on [lo, hi], lo < hi: an end or a midpoint where g is
    exactly zero, else, after bisection down to adjacent doubles, the end of
    the last bracket with the smaller |g|.  Raises ValueError unless g(lo)
    and g(hi) differ in sign or one is zero (a NaN does not count), and
    when g is NaN at a midpoint."""
    glo, ghi = g(lo), g(hi)
    if not (glo <= 0.0 <= ghi or ghi <= 0.0 <= glo):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]: g = {glo!r}, {ghi!r}")
    if 0.0 in (glo, ghi):  # the loop below would bisect away from a zero at lo
        return lo if glo == 0.0 else hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(glo) <= abs(ghi) else hi
        gm = g(mid)
        if gm == 0.0:
            return mid
        if np.isnan(gm):
            raise ValueError(f"g is NaN at {mid!r} inside [{lo!r}, {hi!r}]")
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm


def tangent_from_point(f, x0: float, f0: float, bracket, *, df) -> float:
    """Abscissa t where the line through (x0, f0) touches f tangentially.

    Solves g(t) = f'(t) (t - x0) - (f(t) - f0) = 0, with f' given as df, by
    _bisect on the bracket, so t is as accurate as g.  Raises ValueError
    unless x0, f0 and the bracket (lo, hi) are finite with lo < hi, and
    when g does not change sign on the bracket or is NaN inside it.
    """
    x0, f0, lo, hi = float(x0), float(f0), float(bracket[0]), float(bracket[1])
    if not (np.isfinite([x0, f0, lo, hi]).all() and lo < hi):
        raise ValueError(f"need a finite anchor and bracket lo < hi, got ({x0!r}, {f0!r}), {bracket!r}")

    def g(t: float) -> float:
        return df(t) * (t - x0) - (f(t) - f0)

    return _bisect(g, lo, hi)
