import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.hull import HullResult, SampledCurve, _bisect, lower_convex_hull, tangent_from_point
from diagmap.symmetric_curve import _theta0_slope, min_pure_output_entropy, theta0_entropy

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
    eps = np.array([min_pure_output_entropy(float(z))[0] for z in zs])
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
    args = {"x0": 0.0, "f0": -1.0, "lo": 0.5, "hi": 2.0, slot: bad}
    with pytest.raises(ValueError, match="finite"):
        tangent_from_point(
            lambda x: x * x, args["x0"], args["f0"], (args["lo"], args["hi"]), df=lambda x: 2.0 * x
        )


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


@pytest.mark.parametrize("root", [Fraction(1, 3), Fraction(1, 10), Fraction(-7, 9)])
def test_bisect_returns_the_nearest_double(root):
    # g exact up to one rounding: the root lies between adjacent doubles, and
    # the one returned is the nearer (below 1/3 and -7/9, above 1/10)
    assert _bisect(lambda x: float(Fraction(x) - root), -1.0, 1.0) == float(root)
    assert _bisect(lambda x: float(root - Fraction(x)), -1.0, 1.0) == float(root)


def test_bisect_stops_at_an_exact_zero():
    assert _bisect(lambda x: x - 0.5, 0.0, 1.0) == 0.5
    # a zero at either end is returned as it is, not bisected away from
    assert _bisect(lambda x: x, 0.0, 1.0) == 0.0
    assert _bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_tangent_at_an_end_of_the_bracket():
    # g(t) = t^2 - 1 is zero at the lower end
    assert tangent_from_point(lambda x: x * x, 0.0, -1.0, (1.0, 2.0), df=lambda x: 2.0 * x) == 1.0
    assert tangent_from_point(lambda x: x * x, 0.0, -1.0, (0.5, 1.0), df=lambda x: 2.0 * x) == 1.0


def test_hull_result_shape():
    xs = np.array([0.0, 1.0, 2.0])
    res = lower_convex_hull(SampledCurve(xs=xs, ys=np.array([0.0, 2.0, 0.0])))
    assert isinstance(res, HullResult)
    assert np.allclose(res.hull_ys, [0.0, 0.0, 0.0])
