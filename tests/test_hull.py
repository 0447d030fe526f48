import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.hull import HullResult, SampledCurve, lower_convex_hull
from diagmap.states import curve_grid
from diagmap.symmetric_curve import curve_record


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


def test_hull_result_shape():
    xs = np.array([0.0, 1.0, 2.0])
    res = lower_convex_hull(SampledCurve(xs=xs, ys=np.array([0.0, 2.0, 0.0])))
    assert isinstance(res, HullResult)
    assert np.allclose(res.hull_ys, [0.0, 0.0, 0.0])
