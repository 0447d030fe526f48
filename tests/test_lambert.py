import math

import numpy as np
import pytest

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
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_wm1_identity_residual():
    us = np.logspace(math.log10(1.0 + 1e-9), math.log10(690.0), 500)
    xs = np.concatenate([-np.exp(-us), -INV_E + np.logspace(-15, math.log10(INV_E) - 0.05, 500)])
    assert xs.size == 1000
    for x in xs:
        w = lambert_wm1(float(x))
        assert w <= -1.0 + 1e-12
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_branch_monotonicity():
    xs = np.linspace(-INV_E + 1e-12, 5.0, 2000)
    w = np.array([lambert_w0(float(x)) for x in xs])
    assert np.all(np.diff(w) > 0.0)
    xs = np.linspace(-INV_E + 1e-12, -1e-6, 2000)
    w = np.array([lambert_wm1(float(x)) for x in xs])
    assert np.all(np.diff(w) < 0.0)
