"""Lower convex envelope of a sampled 1-D function, used by the curve-hull
check and the benchmark; tangent location from an external anchor point,
behind the linear pieces of the entanglement curve; and _bisect, the one
root finder of the curve layer: bisection for the tangency point and the
angle transition, safeguarded Newton steps for the minimizing angle."""

import math
from dataclasses import dataclass

import numpy as np

from .states import _number


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


def lower_convex_hull(curve: SampledCurve) -> HullResult:
    """Largest convex function not above the samples, evaluated back on xs.

    Vertices come from an Andrew monotone chain over the sample points;
    between vertices the hull is linear.
    """
    xs, ys = curve.xs.tolist(), curve.ys.tolist()
    stack = []
    for i, (cx, cy) in enumerate(zip(xs, ys)):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            ax, ay, bx, by = xs[j], ys[j], xs[k], ys[k]
            # (b - a) x (c - a) <= 0: b lies on or above the chord from a to c
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    return HullResult(hull_ys=np.interp(curve.xs, curve.xs[stack], curve.ys[stack]))


# Newton steps may fall this many halvings behind bisection before _bisect
# takes bisection steps to catch up.
_NEWTON_GRACE = 16


def _bisect(g, lo: float, hi: float, gdg=None) -> float:
    """A zero of g on [lo, hi], lo < hi: an end or an iterate where g is
    exactly zero, else, once the bracket is closed to adjacent doubles, the
    end of it with the smaller |g|.  Raises ValueError unless g(lo) and g(hi)
    differ in sign or one is zero (a NaN does not count), and when g is NaN
    at an iterate.

    Without gdg every step bisects.  With gdg, which maps t to the pair
    (g(t), g'(t)) in one evaluation, the iterates are evaluated by gdg (the
    ends still by g), and each step after the first is a Newton step from
    the last iterate, which is an end of the bracket, safeguarded as in
    rtsafe (Numerical Recipes section 9.4): a step that leaves the bracket,
    or a zero or NaN derivative, bisects instead, and so does every step
    while the bracket is wider than bisection, _NEWTON_GRACE steps behind,
    would have left it.  A step shorter than the spacing of doubles goes to
    the next double toward the far end instead, so that end closes in once
    Newton has converged from one side.
    """
    glo, ghi = g(lo), g(hi)
    if not (glo <= 0.0 <= ghi or ghi <= 0.0 <= glo):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]: g = {glo!r}, {ghi!r}")
    if 0.0 in (glo, ghi):  # the loop below would bisect away from a zero at lo
        return lo if glo == 0.0 else hi
    budget = (hi - lo) * 2.0**_NEWTON_GRACE
    x = None  # the last iterate, where the next Newton step starts
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(glo) <= abs(ghi) else hi
        budget *= 0.5
        t = mid
        if x is not None and hi - lo <= budget:
            step = -gx / dgx if dgx else math.nan
            nearest = math.nextafter(x, hi if x == lo else lo)
            newton = nearest if abs(step) < abs(nearest - x) else x + step
            if lo < newton < hi:
                t = newton
        if gdg is None:
            gm = g(t)
        else:
            gm, dgm = gdg(t)
        if gm == 0.0:
            return t
        if math.isnan(gm):
            raise ValueError(f"g is NaN at {t!r} inside [{lo!r}, {hi!r}]")
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = t, gm
        else:
            hi, ghi = t, gm
        if gdg is not None:
            x, gx, dgx = t, gm, dgm


def tangent_from_point(f, x0: float, f0: float, bracket, *, df) -> float:
    """Abscissa t where the line through (x0, f0) touches f tangentially.

    Solves g(t) = f'(t) (t - x0) - (f(t) - f0) = 0, with f' given as df, by
    _bisect on the bracket, so t is as accurate as g.  Raises ValueError
    unless x0, f0 and the bracket (lo, hi) are finite with lo < hi, and
    when g does not change sign on the bracket or is NaN inside it.
    """
    x0, f0, lo, hi = _number(x0), _number(f0), _number(bracket[0]), _number(bracket[1])
    if not (np.isfinite([x0, f0, lo, hi]).all() and lo < hi):
        raise ValueError(f"need a finite anchor and bracket lo < hi, got ({x0!r}, {f0!r}), {bracket!r}")

    def g(t: float) -> float:
        return df(t) * (t - x0) - (f(t) - f0)

    return _bisect(g, lo, hi)
