import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from diagmap import lambert
from diagmap.lambert import BRANCH_POINT, lambert_w0, lambert_wm1

INV_E = math.exp(-1.0)


def test_w0_trivial_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w0(-INV_E) == pytest.approx(-1.0, abs=1e-7)


def test_wm1_trivial_points():
    assert lambert_wm1(-INV_E) == pytest.approx(-1.0, abs=1e-7)
    assert lambert_wm1(-2.0 * math.exp(-2.0)) == pytest.approx(-2.0, abs=1e-13)


def test_wm1_against_bisection():
    # independent root of w * e^w = -0.1 on w in (-20, -1)
    target = -0.1
    lo, hi = -20.0, -1.0
    f = lambda w: w * math.exp(w) - target
    assert f(lo) * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert lambert_wm1(target) == pytest.approx(0.5 * (lo + hi), abs=1e-12)
    assert lambert_wm1(target) < -1.0


def test_domain_errors():
    with pytest.raises(ValueError):
        lambert_w0(BRANCH_POINT - 1e-9)
    with pytest.raises(ValueError):
        lambert_wm1(BRANCH_POINT - 1e-9)
    with pytest.raises(ValueError):
        lambert_wm1(0.0)
    with pytest.raises(ValueError):
        lambert_wm1(0.5)
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError):
            lambert_w0(x)
    for x in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            lambert_wm1(x)


def test_w0_identity_residual():
    xs = np.concatenate(
        [
            np.logspace(-300, 6, 400),
            -INV_E + np.logspace(-15, math.log10(INV_E) - 1e-9, 300),
            -np.logspace(-300, math.log10(INV_E) - 1e-6, 300),
        ]
    )
    assert xs.size == 1000
    for x in xs:
        w = lambert_w0(float(x))
        assert w >= -1.0 - 1e-12
        assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, abs(x))


def test_wm1_identity_residual():
    us = np.logspace(math.log10(1.0 + 1e-9), math.log10(690.0), 500)
    xs = np.concatenate([-np.exp(-us), -INV_E + np.logspace(-15, math.log10(INV_E) - 0.05, 500)])
    assert xs.size == 1000
    for x in xs:
        w = lambert_wm1(float(x))
        assert w <= -1.0 + 1e-12
        assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, abs(x))


# -1e-280 ... -1e-323, then the smallest subnormals 5e-324 ... 4e-323
TINY_XS = [float(f"-1e-{k}") for k in range(280, 324)] + [-j * 5e-324 for j in range(1, 9)]


def test_wm1_at_tiny_and_subnormal_arguments_against_mpmath():
    # once exp(w) = x / w nears the subnormal range, Halley steps on
    # w exp(w) = x lose bits (1.8e-6 relative at -1e-318, 4.0e-3 at
    # -1.5e-323) and divide by zero at -5e-324
    with mpmath.workdps(40):
        for x in TINY_XS:
            ref = mpmath.lambertw(mpmath.mpf(x), -1).real
            assert float(abs((lambert_wm1(x) - ref) / ref)) <= 1e-14, x


def test_branch_monotonicity():
    xs = np.linspace(-INV_E + 1e-12, 5.0, 2000)
    w = np.array([lambert_w0(float(x)) for x in xs])
    assert np.all(np.diff(w) > 0.0)
    xs = np.linspace(-INV_E + 1e-12, -1e-6, 2000)
    w = np.array([lambert_wm1(float(x)) for x in xs])
    assert np.all(np.diff(w) < 0.0)


def test_w0_at_huge_arguments_against_mpmath():
    # Halley steps on w exp(w) = x overflow from x = 2.76e307 on, which once
    # left W0 at its start: 702.6321 at 1e308 against 702.6414
    with mpmath.workdps(40):
        for x in [float(f"1e{k}") for k in range(300, 309)] + [sys.float_info.max]:
            ref = mpmath.lambertw(mpmath.mpf(x)).real
            assert float(abs((lambert_w0(x) - ref) / ref)) <= 1e-15, x


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(hs.one_of(hs.floats(BRANCH_POINT - 1e-15, 0.0), hs.floats()))
@example(BRANCH_POINT)  # 1 + e x rounds below 0 here
@example(math.nextafter(BRANCH_POINT, 0.0))
@example(math.nextafter(BRANCH_POINT, -1.0))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(math.nan)
def test_branch_p_is_bit_identical_to_builtin_max(x):
    # _branch_p writes max(t, 0.0) as a comparison
    t = 2.0 * math.e * ((x - BRANCH_POINT) + lambert._BRANCH_POINT_ROUNDING)
    assert float.hex(lambert._branch_p(x)) == float.hex(math.sqrt(max(t, 0.0)))


def _doubles(x, count, direction):
    out = [x]
    for _ in range(count - 1):
        out.append(math.nextafter(out[-1], direction))
    return out


def _first_argument_from(p):
    # the least x whose |p| is at least p
    x = (0.5 * p**2 - 1.0) / math.e
    while lambert._branch_p(x) >= p:
        x = math.nextafter(x, -math.inf)
    while not lambert._branch_p(x) >= p:
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize(
    "branch, k, first",
    [
        (lambert_w0, 0, -0.25),
        (lambert_wm1, -1, _first_argument_from(math.nextafter(lambert._ASYMPTOTIC_P, math.inf))),
        (lambert_w0, 0, _first_argument_from(lambert._SERIES_CUTOFF)),
        (lambert_wm1, -1, _first_argument_from(lambert._SERIES_CUTOFF)),
    ],
    ids=["w0", "wm1", "w0_series", "wm1_series"],
)
def test_both_sides_of_each_fritsch_switch(branch, k, first):
    # 200 consecutive doubles below a switch of W's start, then 200 from
    # the first argument past it
    xs = _doubles(math.nextafter(first, -math.inf), 200, -math.inf)[::-1] + _doubles(first, 200, math.inf)
    ws = np.array([branch(x) for x in xs])
    with mpmath.workdps(40):
        for x, w in zip(xs, ws):
            ref = mpmath.lambertw(mpmath.mpf(x), k).real
            # W's relative condition number is about 1/|p| near -1/e
            assert float(abs((w - ref) / ref)) * lambert._branch_p(x) <= 2e-16, x
    # W never steps back from one double to the next, and moves on over any
    # two (next to x = -0.25 it moves by one or two ulps per double)
    sign = 1.0 if k == 0 else -1.0
    assert np.all(sign * np.diff(ws) >= 0.0)
    assert np.all(sign * (ws[2:] - ws[:-2]) > 0.0)


# arguments at which Halley steps of W-1 once alternated between two points
# 2e-15 apart
TWO_CYCLE_XS = (-0.36682133436016323, -0.36726775161323877, -0.3671979948527273)


def test_series_started_regions_against_mpmath():
    # W0 on x < -0.25 and W-1 on |p| <= 0.6, beyond the series cutoff: the
    # branch-point series plus two Fritsch steps.  W's relative condition
    # number there is about 1/|p|, so the error is measured times |p|.  On
    # these points it reads 1.4e-16 (W0) and 7.7e-17 (W-1)
    g = np.random.default_rng(23)
    ps = {
        0: g.uniform(lambert._SERIES_CUTOFF, math.sqrt(2.0 - 0.5 * math.e), 1500),
        -1: g.uniform(lambert._SERIES_CUTOFF, lambert._ASYMPTOTIC_P, 1500),
    }
    with mpmath.workdps(40):
        for branch, k in ((lambert_w0, 0), (lambert_wm1, -1)):
            xs = [(0.5 * p * p - 1.0) / math.e for p in ps[k]] + list(TWO_CYCLE_XS)
            for x in xs:
                ref = mpmath.lambertw(mpmath.mpf(x), k).real
                assert float(abs((branch(x) - ref) / ref)) * lambert._branch_p(x) <= 2e-16, x


def test_fritsch_regions_against_mpmath():
    # dense seeded grids of the regions that start from Winitzki's
    # approximation (W0) or the asymptotic series (W-1); two steps
    # on the plain z = log(x / w) - w read 3.8e-16 near x = -0.265 (W-1)
    # and 2.6e-16 near x = -0.248 (W0)
    g = np.random.default_rng(21)
    w0_xs = np.concatenate([g.uniform(-0.25, 0.0, 1000), g.uniform(0.0, 10.0, 1000), 10.0 ** g.uniform(-20, 308.2, 1000)])
    wm1_xs = np.concatenate([g.uniform(-0.3016, -0.2, 1000), -(10.0 ** g.uniform(-323.3, math.log10(0.3016), 1000))])
    with mpmath.workdps(30):
        for branch, k, xs in ((lambert_w0, 0, w0_xs), (lambert_wm1, -1, wm1_xs)):
            for x in map(float, xs):
                if x != 0.0:
                    ref = mpmath.lambertw(mpmath.mpf(x), k).real
                    assert float(abs((branch(x) - ref) / ref)) <= 2.5e-16, x
