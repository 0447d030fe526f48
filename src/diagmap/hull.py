"""The lower convex envelope of a sampled curve, read by the benchmark
alone (perfbench's curve_export); no module of the package imports it.
SampledCurve holds the samples, and lower_convex_hull evaluates their
envelope back on the sample abscissae.  This module imports numpy.
"""

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
