import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.hull import _NEWTON_GRACE, HullResult, SampledCurve, _bisect, lower_convex_hull, tangent_from_point
from diagmap.symmetric_curve import _theta0_slope, curve_grid, curve_record, theta0_entropy

LN2 = math.log(2.0)
LN3 = math.log(3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sampled_curve_rejects_non_finite_samples(bad):
    for xs, ys in (([0.0, bad, 1.0], [0.0, 1.0, 0.0]), ([0.0, 0.5, 1.0], [0.0, bad, 0.0])):
        with pytest.raises(ValueError, match="finite"):
            SampledCurve(xs=np.array(xs), ys=np.array(ys))


def test_convex_samples_are_their_own_hull():
    xs = np.linspace(-1.0, 1.0, 101)
    curve = SampledCurve(xs=xs, ys=xs**2)
    res = lower_convex_hull(curve)
    assert np.allclose(res.hull_ys, xs**2, atol=1e-12)


def test_concave_samples_hull_is_the_chord():
    xs = np.linspace(-1.0, 1.0, 101)
    ys = -(xs**2)
    res = lower_convex_hull(SampledCurve(xs=xs, ys=ys))
    chord = ys[0] + (ys[-1] - ys[0]) * (xs - xs[0]) / (xs[-1] - xs[0])
    assert np.allclose(res.hull_ys, chord, atol=1e-12)


def test_hull_of_sampled_curve_finds_both_linear_regions():
    zs = np.linspace(-0.5, 1.0, 1501)
    eps = np.array([curve_record(z).epsilon for z in zs])
    res = lower_convex_hull(SampledCurve(xs=zs, ys=eps))
    # the hull leaves the curve on two runs of samples: the lower chord up
    # to z* and the upper chord from 5/6
    below = np.flatnonzero(eps - res.hull_ys > 1e-9)
    runs = np.split(zs[below], np.flatnonzero(np.diff(below) > 1) + 1)
    assert len(runs) == 2
    (a0, a1), (b0, b1) = ((run[0], run[-1]) for run in runs)
    assert a0 == pytest.approx(-0.5, abs=2e-3)
    assert a1 == pytest.approx(-0.40795, abs=2e-3)
    assert b0 == pytest.approx(5.0 / 6.0, abs=2e-3)
    assert b1 == pytest.approx(1.0, abs=2e-3)


def test_hull_invariants_pointwise():
    g = Generator(Philox(key=np.array([20, 0], dtype=np.uint64)))
    for _ in range(50):
        n = int(g.integers(2, 40))
        xs = np.cumsum(g.uniform(0.05, 1.0, size=n))
        ys = g.standard_normal(n)
        res = lower_convex_hull(SampledCurve(xs=xs, ys=ys))
        assert np.all(res.hull_ys <= ys + 1e-12)
        assert res.hull_ys[0] == ys[0]
        assert res.hull_ys[-1] == ys[-1]
        # convexity via second divided differences
        if n >= 3:
            slopes = np.diff(res.hull_ys) / np.diff(xs)
            assert np.all(np.diff(slopes) >= -1e-10)


def test_hull_idempotence_and_monotonicity():
    g = Generator(Philox(key=np.array([21, 0], dtype=np.uint64)))
    for _ in range(30):
        n = int(g.integers(3, 25))
        xs = np.cumsum(g.uniform(0.05, 1.0, size=n))
        ys = g.standard_normal(n)
        first = lower_convex_hull(SampledCurve(xs=xs, ys=ys))
        second = lower_convex_hull(SampledCurve(xs=xs, ys=first.hull_ys))
        assert np.max(np.abs(second.hull_ys - first.hull_ys)) < 1e-12
        raised = ys.copy()
        raised[int(g.integers(0, n))] += 0.5
        res2 = lower_convex_hull(SampledCurve(xs=xs, ys=raised))
        assert np.all(res2.hull_ys >= first.hull_ys - 1e-12)


def test_hull_matches_bruteforce_epigraph():
    g = Generator(Philox(key=np.array([22, 0], dtype=np.uint64)))
    for _ in range(30):
        n = int(g.integers(2, 21))
        xs = np.cumsum(g.uniform(0.1, 1.0, size=n))
        ys = g.standard_normal(n)
        res = lower_convex_hull(SampledCurve(xs=xs, ys=ys))
        for i in range(n):
            best = ys[i]
            for j in range(i + 1):
                for k in range(i, n):
                    if j == k:
                        val = ys[j]
                    else:
                        w = (xs[i] - xs[j]) / (xs[k] - xs[j])
                        val = (1.0 - w) * ys[j] + w * ys[k]
                    best = min(best, val)
            assert res.hull_ys[i] == pytest.approx(best, abs=1e-10)


def _indexed_hull(curve):
    """The monotone chain indexing the numpy arrays one element at a time,
    as lower_convex_hull once did: the reference for its float-list loop."""
    xs, ys = curve.xs, curve.ys
    stack = []
    for i in range(xs.size):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            if (xs[k] - xs[j]) * (ys[i] - ys[j]) - (ys[k] - ys[j]) * (xs[i] - xs[j]) <= 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    return np.interp(xs, xs[stack], ys[stack])


def test_hull_matches_the_indexed_reference_bit_for_bit():
    zs = curve_grid()
    curves = [SampledCurve(xs=zs, ys=np.array([curve_record(float(z)).epsilon for z in zs]))]
    g = Generator(Philox(key=np.array([24, 0], dtype=np.uint64)))
    for _ in range(200):
        n = int(g.integers(2, 300))
        xs = np.cumsum(g.uniform(0.01, 1.0, size=n))
        # random samples, and nearly collinear ones, where the sign of the
        # cross product is round-off
        ys = g.standard_normal(n) if g.integers(2) else 0.3 * xs + 1e-15 * g.standard_normal(n)
        curves.append(SampledCurve(xs=xs, ys=ys))
    for curve in curves:
        assert lower_convex_hull(curve).hull_ys.tobytes() == _indexed_hull(curve).tobytes()


def test_sampled_curve_validation():
    with pytest.raises(ValueError):
        SampledCurve(xs=np.array([0.0]), ys=np.array([1.0]))
    with pytest.raises(ValueError):
        SampledCurve(xs=np.array([0.0, 0.0]), ys=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SampledCurve(xs=np.array([0.0, 1.0]), ys=np.array([1.0]))


def test_tangent_on_parabola():
    # from (0, -1) the tangent to x^2 touches at t = 1 (line y = 2x - 1)
    t = tangent_from_point(lambda x: x * x, 0.0, -1.0, (0.5, 2.0), df=lambda x: 2.0 * x)
    assert t == pytest.approx(1.0, abs=1e-9)


def test_tangent_reproduces_curve_junctions():
    t_low = tangent_from_point(theta0_entropy, -0.5, LN2, (-0.45, -0.3), df=_theta0_slope)
    assert t_low == pytest.approx(-0.4079496711, abs=1e-6)
    t_high = tangent_from_point(theta0_entropy, 1.0, LN3, (0.7, 0.95), df=_theta0_slope)
    assert t_high == pytest.approx(5.0 / 6.0, abs=1e-6)


def test_tangent_slope_consistency():
    t = tangent_from_point(lambda x: x * x, 0.0, -1.0, (0.5, 2.0), df=lambda x: 2.0 * x)
    h = 1e-6 * (1.0 + abs(t))
    slope_curve = ((t + h) ** 2 - (t - h) ** 2) / (2.0 * h)
    slope_line = (t * t - (-1.0)) / (t - 0.0)
    assert slope_curve == pytest.approx(slope_line, abs=1e-6)


def test_tangent_requires_sign_change():
    with pytest.raises(ValueError):
        tangent_from_point(lambda x: x * x, 0.0, -1.0, (2.0, 3.0), df=lambda x: 2.0 * x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["x0", "f0", "lo", "hi"])
def test_tangent_rejects_non_finite_anchor_and_bracket(slot, bad):
    # a NaN anywhere, or an infinite bracket end, once came back as a NaN
    # tangency point, and lo = -inf bisected forever
    good = {"x0": 0.0, "f0": -1.0, "lo": 0.5, "hi": 2.0}

    def tangent(args):
        return tangent_from_point(
            lambda x: x * x, args["x0"], args["f0"], (args["lo"], args["hi"]), df=lambda x: 2.0 * x
        )

    with pytest.raises(ValueError, match="finite"):
        tangent({**good, slot: bad})
    # the slot's good value as a numeric string, which float() would parse
    with pytest.raises(TypeError):
        tangent({**good, slot: str(good[slot])})


def test_tangent_rejects_reversed_bracket():
    with pytest.raises(ValueError, match="lo < hi"):
        tangent_from_point(lambda x: x * x, 0.0, -1.0, (2.0, 0.5), df=lambda x: 2.0 * x)


def test_tangent_rejects_a_nan_tangency_condition():
    # a function that is NaN at an end of the bracket gives no sign change
    with pytest.raises(ValueError, match="sign change"):
        tangent_from_point(lambda x: math.nan if x > 1.5 else x * x, 0.0, -1.0, (0.5, 2.0), df=lambda x: 2.0 * x)


def test_tangent_rejects_a_nan_inside_the_bracket():
    # a NaN of g at a midpoint once counted as a sign change, and the
    # bisection returned 0.9000000000000001, where g = -0.38
    def f(x):
        return math.nan if 0.9 < x < 1.1 else x * x

    with pytest.raises(ValueError, match="NaN"):
        tangent_from_point(f, 0.0, -1.0, (0.5, 2.0), df=lambda x: 2.0 * x)


def _counted(g):
    """g, and the list of points it is evaluated at; past 1000 points it
    raises, so a root finder that crawls fails instead of hanging."""
    points = []

    def counted(x):
        points.append(x)
        assert len(points) <= 1000
        return g(x)

    return counted, points


def _fused(g, dg):
    """The fused evaluation t -> (g(t), g'(t)) that _bisect takes, with the
    derivative dg given as a function or a constant."""
    return lambda x: (g(x), dg(x) if callable(dg) else dg)


@pytest.mark.parametrize("root", [Fraction(1, 3), Fraction(1, 10), Fraction(-7, 9)])
def test_bisect_returns_the_nearest_double(root):
    # g exact up to one rounding: the root lies between adjacent doubles, and
    # the one returned is the nearer (below 1/3 and -7/9, above 1/10), by
    # bisection and by Newton steps alike
    def up(x):
        return float(Fraction(x) - root)

    def down(x):
        return float(root - Fraction(x))

    for up_gdg, down_gdg in ((None, None), (_fused(up, 1.0), _fused(down, -1.0))):
        assert _bisect(up, -1.0, 1.0, up_gdg) == float(root)
        assert _bisect(down, -1.0, 1.0, down_gdg) == float(root)


def test_bisect_stops_at_an_exact_zero():
    # at an iterate, and at either end, which is returned as it is, not
    # bisected away from
    for g, zero in ((lambda x: x - 0.5, 0.5), (lambda x: x, 0.0), (lambda x: x - 1.0, 1.0)):
        assert _bisect(g, 0.0, 1.0) == zero
        assert _bisect(g, 0.0, 1.0, _fused(g, 1.0)) == zero


def test_newton_step_stops_at_an_exact_zero():
    # the midpoint 1/2 misses the root; the Newton step from it lands on it.
    # g is evaluated at the ends only, and each iterate once, by gdg
    g, points = _counted(lambda x: x - 0.25)
    gdg, iterates = _counted(_fused(lambda x: x - 0.25, 1.0))
    assert _bisect(g, 0.0, 1.0, gdg) == 0.25
    assert points == [0.0, 1.0]
    assert iterates == [0.5, 0.25]


def test_newton_closes_the_bracket_in_few_steps():
    # the Newton steps converge from one side of sqrt(2); a step to the next
    # double then closes the far end to adjacent doubles around it
    g, points = _counted(lambda x: float(Fraction(x) ** 2 - 2))
    assert _bisect(g, 1.0, 2.0, _fused(g, lambda x: 2.0 * x)) == math.sqrt(2.0)
    assert len(points) <= 10
    g, plain = _counted(lambda x: float(Fraction(x) ** 2 - 2))
    assert _bisect(g, 1.0, 2.0) == math.sqrt(2.0)
    assert len(plain) >= 50


@pytest.mark.parametrize("slope", [0.0, math.nan, -1e-9], ids=["zero", "nan", "outward"])
def test_newton_falls_back_to_bisection(slope):
    # a zero or NaN derivative, and one whose Newton steps leave the bracket,
    # give bisection's evaluation points exactly
    root = Fraction(1, 3)
    g, points = _counted(lambda x: float(Fraction(x) - root))
    assert _bisect(g, -1.0, 1.0, _fused(g, slope)) == float(root)
    g, plain = _counted(lambda x: float(Fraction(x) - root))
    _bisect(g, -1.0, 1.0)
    assert points == plain


def test_newton_falls_behind_bisection_by_at_most_the_grace():
    # a derivative 1e30 times too steep makes the Newton steps from the
    # midpoint 0 crawl by 3.3e-31; bisection takes over once the bracket is
    # wider than bisection, _NEWTON_GRACE steps behind, would have left it
    root = Fraction(1, 3)
    g, points = _counted(lambda x: float(Fraction(x) - root))
    assert _bisect(g, -1.0, 1.0, _fused(g, 1e30)) == float(root)
    g, plain = _counted(lambda x: float(Fraction(x) - root))
    _bisect(g, -1.0, 1.0)
    assert len(points) <= len(plain) + _NEWTON_GRACE + 1


def test_bisect_raises_as_before_with_a_derivative():
    for g, match in (
        (lambda x: x + 1.0, "sign change"),
        (lambda x: math.nan if x == 1.0 else x - 0.5, "sign change"),
        # a NaN at the Newton iterate 0.35, reached from the midpoint 0.5
        (lambda x: math.nan if 0.3 < x < 0.4 else x - 0.35, "NaN"),
    ):
        with pytest.raises(ValueError, match=match):
            _bisect(g, 0.0, 1.0, _fused(g, 1.0))


def test_tangent_at_an_end_of_the_bracket():
    # g(t) = t^2 - 1 is zero at the lower end
    assert tangent_from_point(lambda x: x * x, 0.0, -1.0, (1.0, 2.0), df=lambda x: 2.0 * x) == 1.0
    assert tangent_from_point(lambda x: x * x, 0.0, -1.0, (0.5, 1.0), df=lambda x: 2.0 * x) == 1.0


def test_hull_result_shape():
    xs = np.array([0.0, 1.0, 2.0])
    res = lower_convex_hull(SampledCurve(xs=xs, ys=np.array([0.0, 2.0, 0.0])))
    assert isinstance(res, HullResult)
    assert np.allclose(res.hull_ys, [0.0, 0.0, 0.0])
