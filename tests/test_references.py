"""High-precision references for the headline constants, computed with
mpmath at 40 significant digits."""

import math
from functools import partial

import mpmath
import numpy as np
import pytest

from diagmap import lambert
from diagmap.entropy import LN2
from diagmap.face_minimum import min_face_entropy, two_value_entropy
from diagmap.lambert import BRANCH_POINT, lambert_w0, lambert_wm1
from diagmap.symmetric_curve import (
    UPPER_KNEE,
    UPPER_KNEE_VALUE,
    _one_vs_rest_slope,
    curve_grid,
    lower_tangent_z,
    min_pure_output_entropy,
    one_vs_rest_entropy,
    theta_transition,
)
from diagmap.verify import ONE_VS_REST_7_REF, S_ZSTAR_REF, THETA_TRANSITION_REF, ZSTAR_REF

DPS = 40
# the references carry 20 digits, so each is within 5e-21 of its value
REF_TOL = mpmath.mpf(10) ** -20


@pytest.fixture(autouse=True)
def _precision():
    with mpmath.workdps(DPS):
        yield


def _relative_error(got: float, ref) -> float:
    return float(abs((mpmath.mpf(got) - ref) / ref))


def _near_branch_point():
    # x from 1e-16 to 0.3 above -1/e, log-spaced in the distance
    return [BRANCH_POINT + float(d) for d in np.logspace(-16, math.log10(0.3), 400)]


def _worst(branch, k, xs) -> float:
    return max(_relative_error(branch(x), mpmath.lambertw(x, k).real) for x in xs if x != 0.0)


def test_branch_point_rounding_against_mpmath():
    # the distance to the branch point is (x - BRANCH_POINT) plus this
    assert lambert._BRANCH_POINT_ROUNDING == float(mpmath.mpf(BRANCH_POINT) + 1 / mpmath.e)


# near the branch point 1 + e x taken as written cancels: 2.7e-9 relative
# at 1e-16 from -1/e, 4.5e-11 at 1e-12 and 4.8e-13 at 1e-8; measured 4.6e-15


def test_lambert_w0_against_mpmath():
    assert _worst(lambert_w0, 0, _near_branch_point()) <= 1e-14
    xs = [float(x) for x in np.logspace(-300, 300, 300)]
    xs += [-float(x) for x in np.logspace(-300, -1, 100)]
    assert _worst(lambert_w0, 0, xs) <= 1e-13


def test_lambert_wm1_against_mpmath():
    assert _worst(lambert_wm1, -1, _near_branch_point()) <= 1e-14
    assert _worst(lambert_wm1, -1, [-float(x) for x in np.logspace(-300, -1, 100)]) <= 1e-13


def test_min_face_entropy_against_mpmath():
    for n in range(2, 65):
        if n <= 6:
            ref = mpmath.log(2)
        else:
            ref = mpmath.log(n) - (1 - mpmath.mpf(2) / n) * mpmath.log(n - 1)
        assert abs(mpmath.mpf(min_face_entropy(n)) - ref) <= 1e-15, n


@pytest.mark.parametrize("n", [10**6, 10**12, 10**15])
def test_face_closed_forms_at_large_n_against_mpmath(n):
    # log N - log(N-1) taken as a difference of logs read 6.4e-12 (relative)
    # off at N = 10^6 and 1.4e-2 at 10^15
    ref = mpmath.log(n) - (1 - mpmath.mpf(2) / n) * mpmath.log(n - 1)
    assert _relative_error(min_face_entropy(n), ref) <= 1e-15
    assert min_face_entropy(n) == min(two_value_entropy(n, 1), LN2)
    assert _relative_error(two_value_entropy(n, 1), ref) <= 1e-15
    assert _relative_error(two_value_entropy(n, n - 1), ref) <= 1e-15


def _one_vs_rest_entropy(z, N=3):
    alpha, beta = mpmath.sqrt(1 + (N - 1) * z), mpmath.sqrt(1 - z)
    u, v = (alpha - beta) ** 2 / N**2, (alpha + (N - 1) * beta) ** 2 / N**2
    return -(N - 1) * u * mpmath.log(u) - v * mpmath.log(v)


def test_zstar_reference_value():
    # tangency: s'(t) (t + 1/2) = s(t) - log 2
    def g(t):
        return mpmath.diff(_one_vs_rest_entropy, t) * (t + 0.5) - (_one_vs_rest_entropy(t) - mpmath.log(2))

    zstar = mpmath.findroot(g, mpmath.mpf(ZSTAR_REF))
    assert abs(zstar - mpmath.mpf(ZSTAR_REF)) < REF_TOL


def test_lower_tangent_z_against_mpmath():
    # the analytic slope of the theta = 0 entropy puts z* within 2.6e-17 of the
    # reference (central differences left it 1.03e-11 off)
    assert abs(mpmath.mpf(lower_tangent_z()) - mpmath.mpf(ZSTAR_REF)) <= 1e-16


def test_curve_value_at_zstar_reference():
    # ZSTAR_REF is 3.7e-22 from z* and s' = -2.42 there, so with the 2.7e-21
    # rounding of S_ZSTAR_REF the two differ by 3.6e-21
    assert abs(_one_vs_rest_entropy(mpmath.mpf(ZSTAR_REF)) - mpmath.mpf(S_ZSTAR_REF)) < REF_TOL
    # measured 1.8e-16
    assert abs(mpmath.mpf(one_vs_rest_entropy(lower_tangent_z(), 3)) - mpmath.mpf(S_ZSTAR_REF)) <= 5e-16


def test_knee_value_reference():
    # UPPER_KNEE_VALUE, log 3 - (log 2)/3 taken in doubles; measured 1.4e-16
    assert abs(mpmath.mpf(UPPER_KNEE_VALUE) - (mpmath.log(3) - mpmath.log(2) / 3)) <= 1e-15


def test_one_vs_rest_7_reference():
    assert abs(mpmath.log(7) - mpmath.mpf(5) / 7 * mpmath.log(6) - mpmath.mpf(ONE_VS_REST_7_REF)) < REF_TOL


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_theta0_slope_against_mpmath(N):
    zs = [float(z) for z in np.linspace(0.01 - 1.0 / (N - 1), 0.99, 149) if abs(z) > 1e-3]
    s = partial(_one_vs_rest_entropy, N=N)
    worst = max(_relative_error(_one_vs_rest_slope(z, N), mpmath.diff(s, mpmath.mpf(z))) for z in zs)
    assert worst <= 1e-12


def _off_grid_z():
    # z off the grids of the tests below: the junctions z* and 5/6, points
    # around the angle transition and two coarse grids
    zs = [lower_tangent_z(), UPPER_KNEE, 0.0, -0.41, -0.4150234]
    return zs + np.linspace(-0.45, -0.40, 15).tolist() + np.linspace(-0.5, 1.0, 26).tolist()


def test_theta0_epsilon_against_mpmath():
    # wherever the minimizing angle is 0 (every z above the transition),
    # epsilon is the theta = 0 entropy; measured 4.3e-16 on these points, 5.1e-16
    # when it was evaluated as the output entropy at angle 0 (three cosines)
    worst = 0.0
    for z in np.linspace(-0.5, 1.0, 20001).tolist() + curve_grid().tolist() + _off_grid_z():
        value, theta = min_pure_output_entropy(z)
        if theta == 0.0:
            worst = max(worst, abs(mpmath.mpf(value) - _one_vs_rest_entropy(mpmath.mpf(z))))
    assert worst <= 5e-16


def _output_entropy(z, theta):
    # min_pure_output_entropy's parametrisation of the pure states at z
    alpha = mpmath.sqrt(2 * z + 1)
    beta = mpmath.sqrt(1 - z)
    third = mpmath.pi / 3
    amps = (alpha + 2 * beta * mpmath.cos(theta), alpha - 2 * beta * mpmath.cos(theta - third),
            alpha - 2 * beta * mpmath.cos(theta + third))
    return -sum((a / 3) ** 2 * mpmath.log((a / 3) ** 2) for a in amps)


def _theta_curvature(z):
    return mpmath.diff(lambda t: _output_entropy(z, t), 0, 2)


def test_theta_transition_reference_value():
    # the transition is the zero of the theta-curvature at theta = 0
    zt = mpmath.findroot(_theta_curvature, mpmath.mpf(THETA_TRANSITION_REF))
    assert abs(zt - mpmath.mpf(THETA_TRANSITION_REF)) < REF_TOL


def test_theta_transition_against_mpmath():
    # bisection on the analytic curvature ends within one double of the
    # reference; measured 4.2e-17
    assert abs(mpmath.mpf(theta_transition()) - mpmath.mpf(THETA_TRANSITION_REF)) <= 1e-16


def _theta_slope(z, theta):
    # d/dtheta of _output_entropy(z, theta), amplitude by amplitude
    alpha, beta = mpmath.sqrt(2 * z + 1), mpmath.sqrt(1 - z)
    third = mpmath.pi / 3
    pairs = (
        (alpha + 2 * beta * mpmath.cos(theta), -2 * beta * mpmath.sin(theta)),
        (alpha - 2 * beta * mpmath.cos(theta - third), 2 * beta * mpmath.sin(theta - third)),
        (alpha - 2 * beta * mpmath.cos(theta + third), 2 * beta * mpmath.sin(theta + third)),
    )
    return -sum(2 * (a / 3) * (da / 3) * (mpmath.log((a / 3) ** 2) + 1) for a, da in pairs)


def test_theta_min_against_mpmath():
    # theta_min's condition number in z: next to the pitchfork theta_min^2 is
    # about 1.859 (z_t - z), so a relative change eps |z| of z moves theta_min
    # by eps |z|/(2 (z_t - z)), relative.  Measured at most 0.95 of the bound
    # below on the grid and 0.73 at z_t - 1e-11; Newton steps on the slope in
    # theta read 2.5e4 times it (1.1, relative) at z_t - 1e-12
    eps = np.finfo(float).eps
    zt = float(THETA_TRANSITION_REF)
    zs = [zt - 10.0**-k for k in range(2, 13)] + [z for z in curve_grid().tolist() + _off_grid_z() if -0.5 < z < zt]
    with mpmath.workdps(50):
        for z in zs:
            theta = min_pure_output_entropy(z)[1]
            ref = mpmath.findroot(lambda t: _theta_slope(mpmath.mpf(z), t), mpmath.mpf(theta) * (1 + mpmath.mpf(10) ** -3))
            assert _relative_error(theta, ref) <= eps * abs(z) / (2.0 * (zt - z)) + 4.0 * eps, z
