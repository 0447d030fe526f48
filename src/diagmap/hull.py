"""Tangent location from an external anchor point, behind the linear pieces
of the entanglement curve, and _bisect, the one root finder of the curve
layer: bisection for the tangency point and the angle transition,
safeguarded Newton steps for the minimizing angle.  Importing this module
loads no numpy: the lower convex envelope of a sampled curve, used by the
curve-hull check and the benchmark, lives in `curve_arrays` and resolves
here on first access."""

import math

from . import _lazy
from .states import _number


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
    if not (all(map(math.isfinite, (x0, f0, lo, hi))) and lo < hi):
        raise ValueError(f"need a finite anchor and bracket lo < hi, got ({x0!r}, {f0!r}), {bracket!r}")

    def g(t: float) -> float:
        return df(t) * (t - x0) - (f(t) - f0)

    return _bisect(g, lo, hi)


__getattr__, __dir__ = _lazy.lazy_names(
    globals(), {".curve_arrays": ("HullResult", "SampledCurve", "lower_convex_hull")}
)
