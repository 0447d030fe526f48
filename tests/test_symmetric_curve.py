import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from numpy.random import Generator, Philox

from diagmap import face_minimum, states, symmetric_curve
from diagmap.entropy import NORM_TOL, TINY, eta
from diagmap.states import (
    Decomposition,
    _orbit,
    curve_grid,
    diagonal_output_entropy,
    optimal_decomposition,
    rank2_state,
    symmetric_state,
    twirl_s3,
)
from diagmap.symmetric_curve import (
    LOWER_TANGENT_BRACKET,
    REGION_LOWER_LINEAR,
    REGION_ROOF,
    REGION_UPPER_LINEAR,
    UPPER_KNEE,
    Z_MAX,
    Z_MIN,
    EDCurveRecord,
    _alpha_beta,
    _amplitudes,
    _bisect,
    _one_vs_rest_slope,
    _output_entropy,
    _piece,
    _theta_derivatives,
    check_z,
    curve_record,
    entanglement_entropy,
    lower_tangent_z,
    min_pure_output_entropy,
    one_vs_rest_entropy,
    rank2_entanglement,
    tangent_from_point,
    theta_transition,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


# ---------------------------------------------------------------------------
# parametrization
# ---------------------------------------------------------------------------

def _abc(z, theta):
    """The amplitudes (a, b, c) of the angle theta at z."""
    return np.array(_amplitudes(*_alpha_beta(z), theta))


def test_abc_at_origin():
    # z = 0, theta = 0: alpha = beta = 1 gives a = 1 and b = c = (alpha - beta)/3 = 0
    assert np.allclose(_abc(0.0, 0.0), [1.0, 0.0, 0.0], atol=1e-15)


def test_abc_at_left_edge():
    # z = -1/2, theta = 0: alpha = 0, beta = sqrt(3/2) gives (2,-1,-1)/sqrt(6)
    assert np.allclose(_abc(-0.5, 0.0), np.array([2.0, -1.0, -1.0]) / math.sqrt(6.0), atol=1e-15)


def test_abc_at_right_edge_any_theta():
    for theta in (0.0, 0.4, 1.0):
        assert np.allclose(_abc(1.0, theta), np.full(3, 1.0 / math.sqrt(3.0)), atol=1e-15)


def test_abc_constraints_hold_everywhere():
    # a^2 + b^2 + c^2 = 1 and ab + bc + ca = z at every angle
    g = Generator(Philox(key=np.array([30, 0], dtype=np.uint64)))
    for _ in range(300):
        z = float(g.uniform(-0.5, 1.0))
        theta = float(g.uniform(0.0, 2.0 * math.pi))
        a, b, c = _abc(z, theta)
        assert abs(a * a + b * b + c * c - 1.0) < 1e-12
        assert abs(a * b + b * c + c * a - z) < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        entanglement_entropy,
        curve_record,
        symmetric_state,
        optimal_decomposition,
        min_pure_output_entropy,
        lambda text: one_vs_rest_entropy(text, 3),
        lambda text: rank2_state(text, 0.1, 1.0, 0.0),
        lambda text: rank2_state(0.5, text, 1.0, 0.0),
        lambda text: rank2_state(0.5, 0.1, text, 0.0),
        lambda text: rank2_entanglement(0.5, 0.1, 1.0, text),
    ],
)
@pytest.mark.parametrize("text", ["0.3", b"0.3", "1"])
def test_curve_layer_rejects_text_input(call, text):
    # float() and complex() parse text, so "0.3" was once taken as z = 0.3
    with pytest.raises(TypeError, match="number"):
        call(text)


# ---------------------------------------------------------------------------
# theta = 0 entropy and the pointwise minimum
# ---------------------------------------------------------------------------

def test_theta0_entropy_values():
    assert one_vs_rest_entropy(1.0, 3) == pytest.approx(LN3, abs=1e-15)
    assert one_vs_rest_entropy(0.0, 3) == 0.0
    assert one_vs_rest_entropy(UPPER_KNEE, 3) == pytest.approx(LN3 - LN2 / 3.0, abs=1e-14)


def test_one_vs_rest_entropy_against_published_forms():
    # Terhal and Vollbrecht's isotropic-state minimizer for z >= 0 (PRL 85,
    # 2625 (2000)): h(gamma) + (1 - gamma) log(N - 1) with F = (1 + (N - 1) z)/N
    # and sqrt(gamma) = (sqrt(F) + sqrt((N - 1)(1 - F)))/sqrt(N).  1 - gamma is
    # taken apart: 1.0 - gamma cancels next to z = 0, 1.3e-14 off at N = 22
    worst = 0.0
    for N, z in itertools.product(range(3, 33), np.linspace(0.0, 1.0, 201).tolist()):
        F = (1.0 + (N - 1) * z) / N
        gamma = (math.sqrt(F) + math.sqrt((N - 1) * (1.0 - F))) ** 2 / N
        rest = (math.sqrt((N - 1) * F) - math.sqrt(1.0 - F)) ** 2 / N
        worst = max(worst, abs(one_vs_rest_entropy(z, N) - eta(gamma) - eta(rest) - rest * math.log(N - 1)))
    assert worst <= 1e-14  # reads 1.8e-15
    # at z = -1/(N - 1), the face's one-vs-rest stationary state; reads
    # 5.6e-16.  fl(-1/(N - 1)) lies above the face point for some N, where
    # (N - 1) z + 1 rounded to 1.1e-16 and the value read up to 3.2e-9 off
    face = [one_vs_rest_entropy(-1.0 / (N - 1), N) - face_minimum.two_value_entropy(N, 1) for N in range(2, 400)]
    assert max(map(abs, face)) <= 1e-15
    # at N = 2, the qubit coherence of formation h((1 + sqrt(1 - z^2))/2); reads 1.1e-15
    ps = [(z, (1.0 + math.sqrt(1.0 - z * z)) / 2.0) for z in np.linspace(-1.0, 1.0, 2001).tolist()]
    assert max(abs(one_vs_rest_entropy(z, 2) - eta(p) - eta(1.0 - p)) for z, p in ps) <= 2e-15


def test_min_entropy_examples():
    # the theta = 0 state at z = 0 is (1, 0, 0); its output entropy as three
    # cosines read 8.1e-31
    assert min_pure_output_entropy(0.0) == (0.0, 0.0)
    value, theta = min_pure_output_entropy(5.0 / 6.0)
    assert value == pytest.approx(0.867563, abs=1e-6)
    assert theta == 0.0
    # at z = -1/2 the amplitude c is zero at theta = pi/6, where the slope
    # behaves like c log c^2; Newton steps there once took 24 slope
    # evaluations and returned pi/6 + 1 ulp
    assert min_pure_output_entropy(-0.5) == (LN2, math.pi / 6.0)


def test_min_entropy_agrees_with_direct_scan():
    # independent check on the export grid: no angle of a dense scan over
    # the fundamental period [0, pi/3] beats the curvature-decided minimum
    thetas = np.linspace(0.0, math.pi / 3.0, 4097)
    for z in curve_grid():
        value, _ = min_pure_output_entropy(float(z))
        alpha, beta = math.sqrt(2.0 * z + 1.0), math.sqrt(1.0 - z)
        # the amplitudes are (alpha + 2 beta cos(theta + 2 pi k / 3)) / 3, k = 0, 1, 2
        amps = (alpha + 2.0 * beta * np.cos(thetas + np.array([[0.0], [1.0], [2.0]]) * (2.0 * math.pi / 3.0))) / 3.0
        p = amps * amps
        best = np.min(-np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=0))
        assert value <= best + 1e-15


def test_min_entropy_matches_theta0_on_roof_region():
    for z in _roof_zs():
        assert min_pure_output_entropy(z) == (one_vs_rest_entropy(z, 3), 0.0)


def test_theta_transition_location():
    zt = theta_transition()
    assert zt == pytest.approx(-0.4150234, abs=1e-4)
    assert -0.41503 < zt < -0.41502
    assert min_pure_output_entropy(-0.40)[1] == 0.0
    assert min_pure_output_entropy(-0.45)[1] > 1e-6


def test_theta_min_grows_like_a_square_root_below_the_transition():
    # a pitchfork: theta = 0 turns from a minimum into a maximum at z_t, and
    # theta_min^2 / (z_t - z) tends to 6 |dK/dz| / K4 = 1.859 (K the
    # theta-curvature at theta = 0, K4 the fourth theta-derivative)
    zt = theta_transition()
    ratios = [min_pure_output_entropy(zt - d)[1] ** 2 / d for d in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)]
    assert ratios == pytest.approx([1.859] * 5, rel=3e-3)
    assert min_pure_output_entropy(zt + 1e-4)[1] == 0.0
    # the slope and the curvature resolve the angle where its dip below the
    # theta = 0 value, of order (z_t - z)^2, is below round-off
    assert min_pure_output_entropy(zt - 1e-9)[1] > 0.0
    assert min_pure_output_entropy(zt + 1e-9)[1] == 0.0


def _theta_slope(alpha, beta, theta):
    return _theta_derivatives(alpha, beta, theta)[0]


def test_theta_slope_matches_finite_differences():
    g = Generator(Philox(key=np.array([42, 0], dtype=np.uint64)))
    for _ in range(200):
        alpha, beta = _alpha_beta(float(g.uniform(-0.5, 1.0)))
        theta = float(g.uniform(0.01, math.pi / 3.0 - 0.01))
        h = 1e-6
        fd = (_output_entropy(alpha, beta, theta + h) - _output_entropy(alpha, beta, theta - h)) / (2.0 * h)
        assert _theta_slope(alpha, beta, theta) == pytest.approx(fd, abs=1e-8)
        # b = c and b' = -c' at theta = 0 cancel bit for bit
        assert _theta_slope(alpha, beta, 0.0) == 0.0


def test_theta_curvature_matches_finite_differences():
    g = Generator(Philox(key=np.array([43, 0], dtype=np.uint64)))
    for _ in range(200):
        alpha, beta = _alpha_beta(float(g.uniform(-0.5, 1.0)))
        theta = float(g.uniform(0.01, math.pi / 3.0 - 0.01))
        h = 1e-6
        fd = (_theta_slope(alpha, beta, theta + h) - _theta_slope(alpha, beta, theta - h)) / (2.0 * h)
        assert _theta_derivatives(alpha, beta, theta)[1] == pytest.approx(fd, abs=1e-6)
    # at theta = 0 it is the curvature that decides the angle, against its
    # explicit form there (a' = 0, a'' = -2 beta/3, b = c = (alpha - beta)/3,
    # b'^2 = beta^2/3, b'' = beta/3); z = 0, where b = c = 0 and log b^2 is
    # round-off, is left out
    for z in np.linspace(-0.5, 1.0, 301):
        if z != 0.0:
            alpha, beta = _alpha_beta(float(z))
            a, b = (alpha + 2.0 * beta) / 3.0, (alpha - beta) / 3.0
            explicit = (4.0 / 3.0) * a * beta * (math.log(a * a) + 1.0) - 4.0 * (
                (beta * beta + b * beta) / 3.0 * (math.log(b * b) + 1.0) + 2.0 * beta * beta / 3.0
            )
            assert _theta_derivatives(alpha, beta, 0.0)[1] == pytest.approx(explicit, rel=1e-13, abs=1e-13)


def _bisection_min_entropy(z, derivatives=_theta_derivatives):
    """min_pure_output_entropy below the transition with the angle found by
    plain bisection on the slope, the reference for the Newton steps."""
    alpha, beta = _alpha_beta(z)
    k = derivatives(alpha, beta, 0.0)[1]
    theta = _bisect(lambda t: k if t == 0.0 else derivatives(alpha, beta, t)[0], 0.0, math.pi / 4.0)
    return _output_entropy(alpha, beta, theta), theta


def test_min_entropy_matches_the_bisection_reference_below_the_transition():
    # epsilon, stationary in theta, within 1e-15 (reads 5.6e-16); the angle
    # within 1e-5, for bisection loses the angle next to z_t
    zt = theta_transition()
    g = Generator(Philox(key=np.array([54, 0], dtype=np.uint64)))
    for z in [*g.uniform(-0.5, zt, 20_000).tolist(), math.nextafter(-0.5, 0.0), math.nextafter(zt, -1.0)]:
        value, theta = min_pure_output_entropy(z)
        ref_value, ref_theta = _bisection_min_entropy(z)
        assert abs(value - ref_value) <= 1e-15, z
        assert abs(theta - ref_theta) <= 1e-5, z


def test_newton_angle_takes_few_slope_evaluations(monkeypatch):
    # bisection on [0, pi/4] takes about 54 slope evaluations per z; the
    # Newton steps take at most 7 evaluations of _theta_derivatives (the
    # curvature at theta = 0 included) on average (reads 6.5), and never
    # more than it.  z = -1/2 takes none: its angle is pi/6 exactly
    calls = [0]

    def counted(alpha, beta, theta):
        calls[0] += 1
        return _theta_derivatives(alpha, beta, theta)

    zt = theta_transition()
    monkeypatch.setattr(symmetric_curve, "_theta_derivatives", counted)
    zs = [float(z) for z in curve_grid() if z < zt]
    assert len(zs) == 85
    newton, plain = [], []
    for z in zs:
        calls[0] = 0
        min_pure_output_entropy(z)
        newton.append(calls[0])
        calls[0] = 0
        _bisection_min_entropy(z, counted)
        plain.append(calls[0])
    assert newton[0] == 0 and min(newton[1:]) >= 2
    assert np.mean(newton) <= 7.0
    assert all(n <= p for n, p in zip(newton, plain))
    # next to the transition, where g = slope/theta is nearly linear in
    # theta^2: at most 16 (reads 8), where Newton steps on the slope in
    # theta took 11 to 34
    for k in range(2, 13):
        calls[0] = 0
        assert min_pure_output_entropy(zt - 10.0**-k)[1] > 0.0
        assert calls[0] <= 16, k
    # next to z = -1/2, where theta_min tends to pi/6 and c log c^2 makes the
    # slope singular: at most 8 (reads 5 or 6), where a start at pi/8 took
    # 7 to 17
    for k in range(2, 16):
        calls[0] = 0
        assert min_pure_output_entropy(-0.5 + 10.0**-k)[1] < math.pi / 6.0
        assert calls[0] <= 8, k


def test_theta_min_is_zero_next_to_z_equal_1():
    # the theta-curvature at 0 stays positive up to z = 1, so theta_min = 0
    # where the angle dependence, of order (1 - z)^1.5, is below round-off
    z = 1.0
    for _ in range(1000):
        z = float(np.nextafter(z, 0.0))
        assert min_pure_output_entropy(z)[1] == 0.0


def _theta0_curvature(z):
    return _theta_derivatives(*_alpha_beta(z), 0.0)[1]


def test_theta0_curvature_keeps_its_sign_next_to_z_equal_1():
    # the curvature is about (4/sqrt(3)) beta^3 there; each of its terms is
    # O(beta), so its round-off is about eps beta (the fused sum of the
    # per-amplitude terms read 1000 times the curvature at beta = 1e-7)
    def ratio(beta):
        z = 1.0 - beta * beta
        return _theta0_curvature(z) / _alpha_beta(z)[1] ** 3 / (4.0 / math.sqrt(3.0))

    for beta in np.geomspace(1e-6, 1e-2, 9):
        assert abs(ratio(beta) - 1.0) <= 1e-3, beta  # reads 6.7e-5 at 1e-6
    assert abs(ratio(1e-7) - 1.0) <= 1e-2  # reads 7.7e-3
    z = 1.0
    for _ in range(1000):
        z = float(np.nextafter(z, 0.0))
        assert _theta0_curvature(z) > 0.0


# ---------------------------------------------------------------------------
# tangency point and the piecewise curve
# ---------------------------------------------------------------------------

def test_lower_tangent_z_value():
    zstar = lower_tangent_z()
    assert zstar == pytest.approx(-0.4079496711, abs=1e-6)
    assert one_vs_rest_entropy(zstar, 3) == pytest.approx(0.470016, abs=1e-5)
    # the chord through (-1/2, log 2) is tangent: slopes agree at z*
    slope_chord = (one_vs_rest_entropy(zstar, 3) - LN2) / (zstar + 0.5)
    assert _one_vs_rest_slope(zstar, 3) == pytest.approx(slope_chord, abs=1e-14)


def test_entanglement_entropy_anchors():
    # exact: 1.0 * LN2 + 0.0 * s(z*), 2 eta(0) + eta(1) and 0.0 * knee + 1.0 * LN3
    assert entanglement_entropy(-0.5) == LN2
    assert entanglement_entropy(0.0) == 0.0
    assert entanglement_entropy(1.0) == LN3


def test_entanglement_entropy_continuity_at_junctions():
    zstar = lower_tangent_z()
    for z0 in (zstar, UPPER_KNEE):
        left = entanglement_entropy(z0 - 1e-12)
        right = entanglement_entropy(z0 + 1e-12)
        assert abs(left - right) < 1e-10


def test_entanglement_entropy_is_lower_bound_of_epsilon():
    for z in np.linspace(-0.5, 1.0, 151):
        eps, _ = min_pure_output_entropy(float(z))
        assert eps >= entanglement_entropy(float(z)) - 1e-9


def test_entanglement_entropy_domain():
    with pytest.raises(ValueError):
        entanglement_entropy(1.2)


def test_curve_record_regions():
    assert curve_record(-0.5).region == REGION_LOWER_LINEAR
    assert curve_record(0.0) == EDCurveRecord(0.0, 0.0, 0.0, 0.0, REGION_ROOF)
    assert curve_record(0.9).region == REGION_UPPER_LINEAR
    rec = curve_record(-0.5)
    assert rec.ed == pytest.approx(LN2, abs=1e-9)
    assert (rec.epsilon, rec.theta_min) == (LN2, math.pi / 6.0)
    assert rec.ed <= rec.epsilon + 1e-9


def test_curve_record_is_immutable():
    rec = curve_record(0.3)
    for field in ("z", "epsilon", "theta_min", "ed", "region"):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0.0)
    assert rec == curve_record(0.3)


def test_curve_record_matches_its_parts_bit_for_bit():
    # curve_record shares one check and one (alpha, beta) among epsilon,
    # theta_min and E; each must be what the public functions return
    g = Generator(Philox(key=np.array([24, 0], dtype=np.uint64)))
    zs = [float(z) for z in np.concatenate([curve_grid(), g.uniform(-0.5, 1.0, 10000)])]
    records = np.array([(r.epsilon, r.theta_min, r.ed) for r in map(curve_record, zs)])
    parts = np.array([(*min_pure_output_entropy(z), entanglement_entropy(z)) for z in zs])
    assert records.tobytes() == parts.tobytes()


def _roof_zs():
    zstar = lower_tangent_z()
    g = Generator(Philox(key=np.array([29, 0], dtype=np.uint64)))
    grid = [z for z in curve_grid().tolist() if zstar <= z <= UPPER_KNEE]
    return [zstar, *grid, *g.uniform(zstar, UPPER_KNEE, 10_000).tolist(), UPPER_KNEE]


def test_theta0_curvature_is_positive_on_the_roof():
    # curve_record's roof shortcut (epsilon = E = the theta = 0 entropy)
    # holds because theta = 0 is the minimizing angle on all of [z*, 5/6]:
    # the curvature there is at least 0.1118, smallest at z*; a z* below
    # the angle transition would fail here
    zs = [*_roof_zs(), *np.linspace(lower_tangent_z(), UPPER_KNEE, 20001).tolist()]
    assert min(map(_theta0_curvature, zs)) >= 0.1
    assert theta_transition() < lower_tangent_z()


def test_roof_record_is_one_theta0_entropy(monkeypatch):
    zs = _roof_zs()
    records = np.array([(r.epsilon, r.theta_min, r.ed) for r in map(curve_record, zs)])
    values = np.array([one_vs_rest_entropy(z, 3) for z in zs])
    assert {curve_record(z).region for z in zs} == {REGION_ROOF}
    assert records[:, 0].tobytes() == records[:, 2].tobytes() == values.tobytes()
    assert records[:, 1].tobytes() == np.zeros(len(zs)).tobytes()
    # one theta = 0 entropy per record, and no angle derivative
    calls = []

    def counted(name):
        f = getattr(symmetric_curve, name)
        return lambda *args: calls.append(name) or f(*args)

    for name in ("_one_vs_rest_entropy", "_theta_derivatives"):
        monkeypatch.setattr(symmetric_curve, name, counted(name))
    for z in (lower_tangent_z(), 0.0, 0.3, UPPER_KNEE):
        calls.clear()
        curve_record(z)
        assert calls == ["_one_vs_rest_entropy"]


def test_curve_record_checks_z_and_takes_alpha_beta_once(monkeypatch):
    checks, alpha_betas = [], []

    def counted_check(z):
        checks.append(z)
        return check_z(z)

    def counted_alpha_beta(z):
        alpha_betas.append(z)
        return _alpha_beta(z)

    monkeypatch.setattr(symmetric_curve, "check_z", counted_check)
    monkeypatch.setattr(symmetric_curve, "_alpha_beta", counted_alpha_beta)
    # below the angle transition, on the lower chord above it, on the roof,
    # on the upper chord, and at both ends
    for z in (-0.5, -0.45, -0.41, 0.0, 0.3, 0.9, 1.0):
        checks.clear()
        alpha_betas.clear()
        curve_record(z)
        assert checks == [z]
        assert alpha_betas.count(z) == 1


def test_curve_grid():
    zs = curve_grid(-0.5, 1.0, 1e-3)
    assert zs.size == 1501
    assert zs[0] == -0.5
    assert zs[-1] == pytest.approx(1.0, abs=1e-12)
    for step in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="z_step"):
            curve_grid(-0.5, 1.0, step)
    with pytest.raises(ValueError):
        curve_grid(0.5, 0.4, 1e-3)


# ---------------------------------------------------------------------------
# optimal decompositions
# ---------------------------------------------------------------------------

def test_decomposition_left_edge():
    dec = optimal_decomposition(-0.5)
    assert len(dec) == 3
    assert np.allclose(dec.weights, 1.0 / 3.0)
    assert np.allclose(dec.mixture(), symmetric_state(-0.5), atol=1e-12)
    assert dec.average_output_entropy() == pytest.approx(LN2, abs=1e-12)


def test_decomposition_maximally_mixed():
    dec = optimal_decomposition(0.0)
    assert len(dec) == 3
    got = sorted(tuple(np.round(np.abs(s), 12)) for s in dec.states)
    assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
    assert dec.average_output_entropy() == pytest.approx(0.0, abs=1e-12)


def test_decomposition_pure_endpoint():
    dec = optimal_decomposition(1.0)
    assert len(dec) == 1
    assert np.allclose(np.abs(dec.states[0]), np.full(3, 1.0 / math.sqrt(3.0)))


def test_decomposition_lengths_by_region():
    zstar = lower_tangent_z()
    assert len(optimal_decomposition(0.5 * (zstar - 0.5))) == 6
    assert len(optimal_decomposition(0.3)) == 3
    assert len(optimal_decomposition(0.9)) == 4


def _chord_ends_and_neighbours():
    ends = ((Z_MIN, 1.0), (lower_tangent_z(), -1.0), (UPPER_KNEE, 2.0), (Z_MAX, 0.0))
    return [z for end, inward in ends for z in (end + math.copysign(1e-13, inward - end), math.nextafter(end, inward))]


@pytest.mark.parametrize("z", _chord_ends_and_neighbours())
def test_decomposition_keeps_light_orbits_next_to_chord_ends(z):
    # an orbit of weight 1e-13 still carries part of the mixture: dropping
    # it puts the weight sum 1.1e-12 below 1 and the average 7.5e-13 below E
    dec = optimal_decomposition(z)
    assert abs(dec.weights.sum() - 1.0) <= 1e-15
    assert abs(dec.average_output_entropy() - entanglement_entropy(z)) <= 1e-15
    assert np.max(np.abs(dec.mixture() - symmetric_state(z))) <= 1e-15


def test_decomposition_members_twirl_onto_orbit_parameters():
    zstar = lower_tangent_z()
    for z in (-0.48, -0.2, 0.4, 0.95):
        dec = optimal_decomposition(z)
        weighted = 0.0
        for w, s in zip(dec.weights, dec.states):
            zi = twirl_s3(np.outer(s, s.conj()))
            if z < zstar:
                assert min(abs(zi - (-0.5)), abs(zi - zstar)) < 1e-9
            elif z <= UPPER_KNEE:
                assert abs(zi - z) < 1e-9
            else:
                assert min(abs(zi - UPPER_KNEE), abs(zi - 1.0)) < 1e-9
            weighted += w * zi
        assert abs(weighted - z) < 1e-12


# ---------------------------------------------------------------------------
# rank-2 closed form
# ---------------------------------------------------------------------------

def test_rank2_no_coherence_cases():
    # x = 0, z = 1/2, a = b = 1/sqrt(2): lambda = 1 kills the first two
    # terms and z * 2 * eta(1/2) = log(2)/2 remains
    val = rank2_entanglement(0.5, 0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    assert val == pytest.approx(0.5 * LN2, abs=1e-14)
    assert rank2_entanglement(0.0, 0.0, 0.6, 0.8) == 0.0


def test_rank2_entanglement_clamps_z_as_rank2_state_does():
    # z within Z_SLACK outside [0, 1] is the state at the end, so the value
    # is the end's: never negative below 0, and the z = 1 value above 1
    for a, b in ((0.6, 0.8), (1.0, 0.0), (1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0))):
        assert rank2_entanglement(1.0 + 5e-13, 0.0, a, b) == rank2_entanglement(1.0, 0.0, a, b)
        assert rank2_entanglement(-5e-13, 0.0, a, b) == rank2_entanglement(0.0, 0.0, a, b) == 0.0
    assert np.array_equal(rank2_state(1.0 + 5e-13, 0.0, 0.6, 0.8), rank2_state(1.0, 0.0, 0.6, 0.8))


def test_rank2_pure_case_matches_output_entropy():
    g = Generator(Philox(key=np.array([32, 0], dtype=np.uint64)))
    for _ in range(10):
        z = float(g.uniform(0.05, 0.95))
        x = math.sqrt(z * (1.0 - z))
        omega = rank2_state(z, x, 1.0, 0.0)
        evals = np.linalg.eigvalsh(omega)
        assert evals[-2] < 1e-12  # rank 1
        assert rank2_entanglement(z, x, 1.0, 0.0) == pytest.approx(
            diagonal_output_entropy(omega), abs=1e-12
        )


def test_rank2_state_validation():
    with pytest.raises(ValueError):
        rank2_state(0.5, 0.0, 1.0, 1.0)  # unnormalized (a, b)
    with pytest.raises(ValueError):
        rank2_state(0.5, 0.6, 1.0, 0.0)  # |x|^2 > z(1-z)
    with pytest.raises(ValueError):
        rank2_state(1.4, 0.0, 1.0, 0.0)
    for z, x, a in ((math.nan, 0.0, 1.0), (0.5, math.nan, 1.0), (0.5, complex(0.0, math.inf), 1.0), (0.5, 0.0, math.nan)):
        with pytest.raises(ValueError):
            rank2_state(z, x, a, 0.0)
        with pytest.raises(ValueError):
            rank2_entanglement(z, x, a, 0.0)


def test_rank2_phases_are_irrelevant():
    g = Generator(Philox(key=np.array([33, 0], dtype=np.uint64)))
    for _ in range(10):
        z = float(g.uniform(0.1, 0.9))
        r = float(g.uniform(0.0, 0.9)) * math.sqrt(z * (1.0 - z))
        amp = float(g.uniform(0.0, 1.0))
        a = math.sqrt(amp)
        b = math.sqrt(1.0 - amp)
        base = rank2_entanglement(z, r, a, b)
        phased = rank2_entanglement(
            z,
            r * np.exp(0.7j),
            a * np.exp(-1.1j),
            b * np.exp(0.4j),
        )
        assert phased == pytest.approx(base, abs=1e-14)


# ---------------------------------------------------------------------------
# the vectorised curve kernels against their former scalar spellings
# ---------------------------------------------------------------------------

def _reference_orbit(amps):
    # one np.allclose pair per kept vector, in itertools.permutations order
    vecs = []
    for perm in itertools.permutations(range(3)):
        v = amps[list(perm)]
        if not any(np.allclose(v, u, atol=1e-12) or np.allclose(v, -u, atol=1e-12) for u in vecs):
            vecs.append(v)
    return vecs


def test_orbit_matches_allclose_reference_on_the_curve():
    # every state _piece mixes, chord ends included: the cyclic shifts are
    # the reference's de-duplicated permutations up to sign and order
    points = set()
    for z in [*curve_grid(), lower_tangent_z(), UPPER_KNEE]:
        points.update((z_end, theta) for _, z_end, theta, _ in _piece(float(z))[1])
    assert {-0.5, lower_tangent_z(), UPPER_KNEE, 1.0} <= {z_end for z_end, _ in points}
    for z_end, theta in points:
        amps = _abc(z_end, theta)
        got = _orbit(*amps.tolist())
        want = _reference_orbit(amps)
        assert len(got) == len(want) == (1 if z_end == 1.0 else 3), amps
        matches = []
        for w_vec in want:
            dist = np.minimum(np.abs(got - w_vec).max(axis=1), np.abs(got + w_vec).max(axis=1))
            assert np.count_nonzero(dist <= 1e-12) == 1, amps
            matches.append(int(np.argmin(dist)))
        assert sorted(matches) == list(range(len(got))), amps


def test_cyclic_shifts_mix_to_the_symmetric_state():
    # the identity _orbit relies on: the shifts of a real unit (a, b, c) mix
    # to symmetric_state(ab + bc + ca), each with the same output entropy
    g = Generator(Philox(key=np.array([41, 0], dtype=np.uint64)))
    for _ in range(200):
        v = g.standard_normal(3)
        v /= np.linalg.norm(v)
        a, b, c = v.tolist()
        rows = _orbit(a, b, c)
        assert rows.dtype == np.complex128 and rows.shape == (3, 3) and rows.flags.owndata
        assert rows.tolist() == [[a, b, c], [b, c, a], [c, a, b]]
        mixture = sum(np.outer(r, r) for r in rows) / 3.0
        assert np.max(np.abs(mixture - symmetric_state(a * b + b * c + c * a))) <= 1e-15
        entropies = {diagonal_output_entropy(np.outer(r, r)) for r in rows}
        assert len(entropies) == 1
    third = 1.0 / math.sqrt(3.0)
    single = _orbit(third, third, third)
    assert single.dtype == np.complex128 and single.shape == (1, 3) and single.flags.owndata
    assert single.tolist() == [[third, third, third]]


_SHIFTS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def _reference_decomposition(z):
    # the earlier optimal_decomposition: each orbit's amplitudes as a
    # complex unit vector, then its shifts gathered by fancy indexing
    _, points = _piece(check_z(z))
    weights, states = [], []
    for w, z_end, theta, _ in points:
        amps = np.asarray(_amplitudes(*_alpha_beta(z_end), theta), dtype=complex)
        assert abs(np.vdot(amps, amps).real - 1.0) <= NORM_TOL, z
        orbit = amps[None] if amps[0] == amps[1] == amps[2] else amps[_SHIFTS]
        w /= len(orbit)
        if w > 0.0:
            weights += [w] * len(orbit)
            states.extend(orbit)
    return np.array(weights), states


def test_optimal_decomposition_is_bit_identical_to_reference():
    g = Generator(Philox(key=np.array([43, 0], dtype=np.uint64)))
    # the chord ends and their neighbours on both sides (check_z clamps the outer two)
    ends = (-0.5, lower_tangent_z(), UPPER_KNEE, 1.0)
    neighbours = [math.nextafter(end, to) for end in ends for to in (-1.0, 2.0)]
    zs = [*curve_grid().tolist(), *g.uniform(-0.5, 1.0, 10_000).tolist(), *ends, *neighbours]
    for z in zs:
        dec = optimal_decomposition(z)
        weights, states = _reference_decomposition(z)
        assert dec.weights.dtype == np.float64 and dec.weights.tobytes() == weights.tobytes(), z
        assert dec.states.dtype == np.complex128 and dec.states.shape == (len(states), 3), z
        for got, want in zip(dec.states, states):
            assert got.tobytes() == want.tobytes(), z


def test_optimal_decomposition_call_counts(monkeypatch):
    # one Decomposition per call, also at -1/2 and 1, where one chord end
    # has weight 0 and its orbit is dropped
    built = []

    def counted_decomposition(*args, **kwargs):
        built.append(1)
        return Decomposition(*args, **kwargs)

    monkeypatch.setattr(states, "Decomposition", counted_decomposition)
    zstar = lower_tangent_z()
    zs = [-0.5, -0.47, math.nextafter(zstar, -1.0), zstar, 0.0, 0.3, UPPER_KNEE, 0.9, math.nextafter(1.0, 0.0), 1.0]
    for z in zs:
        built.clear()
        dec = optimal_decomposition(z)
        assert len(built) == 1, z
    # at 1 the knee's orbit has weight 0 and is dropped
    assert len(dec) == 1 and len(_piece(1.0)[1]) == 2


@pytest.mark.parametrize("z", [-0.47, 0.3, 0.9, -0.5, lower_tangent_z(), UPPER_KNEE, 1.0])
def test_optimal_decomposition_hands_out_no_shared_memory(z):
    # the chord-end orbits are built once and kept read-only: each result
    # gets its own writable copy, so writing into one leaves the next intact
    first, second = optimal_decomposition(z), optimal_decomposition(z)
    for dec in (first, second):
        assert dec.weights.flags.writeable and dec.states.flags.writeable, z
    for a, b in itertools.product((first.weights, first.states), (second.weights, second.states)):
        assert not np.shares_memory(a, b), z
    want = second.weights.tobytes(), second.states.tobytes()
    first.weights[...] = np.nan
    first.states[...] = np.nan
    third = optimal_decomposition(z)
    assert (third.weights.tobytes(), third.states.tobytes()) == want, z
    assert (second.weights.tobytes(), second.states.tobytes()) == want, z


_EPS = np.finfo(float).eps


def _assert_unit_amplitudes(z, theta):
    a, b, c = _amplitudes(*_alpha_beta(z), theta)
    assert abs(a * a + b * b + c * c - 1.0) <= 4.0 * _EPS, (z, theta)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(hs.floats(-0.5, 1.0), hs.floats(0.0, math.pi / 6.0))
@example(-0.48894637120478357, math.pi / 6.0)  # 4 eps: the worst of 8e5 seeded draws
def test_amplitudes_have_unit_norm_within_4_eps(z, theta):
    # optimal_decomposition hands these triples over unchecked, and
    # Decomposition's readers allow NORM_TOL = 1e-12
    _assert_unit_amplitudes(z, theta)


def test_amplitudes_have_unit_norm_within_4_eps_on_the_curve_grid():
    for z in curve_grid().tolist():
        for theta in (0.0, math.pi / 6.0, min_pure_output_entropy(z)[1]):
            _assert_unit_amplitudes(z, theta)


# The per-z helpers write builtin min/max as comparisons; each must give the
# builtin form's double, sign of zero and NaN included.
def _hex(values):
    return tuple(float.hex(v) for v in values)


def _outcome(f, *args):
    # the doubles f returns, or the error it raises (log of an underflowed a * a)
    try:
        out = f(*args)
    except ValueError as exc:
        return repr(exc)
    return _hex(out if isinstance(out, tuple) else [out])


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, TINY, math.nan, math.inf, -math.inf]


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(hs.floats(Z_MIN - 1e-12, Z_MAX + 1e-12))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(Z_MIN)
@example(Z_MAX)
@example(Z_MIN - 1e-12)
@example(Z_MIN + 1e-12)
@example(Z_MAX - 1e-12)
@example(Z_MAX + 1e-12)
@example(math.nextafter(Z_MIN, -1.0))
@example(math.nextafter(Z_MAX, 2.0))
def test_check_z_is_bit_identical_to_builtin_clamp(z):
    assert _hex([check_z(z)]) == _hex([min(max(z, Z_MIN), Z_MAX)])


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(hs.one_of(hs.floats(Z_MIN - 1e-12, Z_MAX + 1e-12), hs.floats(), hs.sampled_from(_EDGES)))
@example(Z_MIN)
@example(Z_MAX)
@example(Z_MIN - 1e-12)
@example(Z_MAX + 1e-12)
def test_alpha_beta_is_bit_identical_to_builtin_max(z):
    want = (math.sqrt(max(2.0 * z + 1.0, 0.0)), math.sqrt(max(1.0 - z, 0.0)))
    assert _hex(_alpha_beta(z)) == _hex(want)


def _reference_theta_derivatives(alpha, beta, theta):
    # _theta_derivatives with its floor written as the builtin max
    x, y = beta * math.cos(theta), beta * math.sin(theta)
    a, m, d = symmetric_curve._amplitude_parts(alpha, x, y)
    da, dm, dd = symmetric_curve._amplitude_parts(0.0, -y, x)
    dda, ddm, ddd = symmetric_curve._amplitude_parts(0.0, -x, -y)
    log_a, log_b, log_c = (math.log(max(v * v, TINY)) for v in (a, m - d, m + d))
    log_a += 1.0
    log_bc = 0.5 * (log_b + log_c) + 1.0
    ell = 2.0 * math.atanh(d / m) if abs(d) < 0.5 * abs(m) else 0.5 * (log_c - log_b)
    p, q = m * dm + d * dd, m * dd + d * dm
    dp, dq = dm * dm + m * ddm + dd * dd + d * ddd, 2.0 * dm * dd + m * ddd + d * ddm
    terms = (-2.0 * a * da * log_a, -4.0 * p * log_bc, -4.0 * ell * q)
    curvature = -2.0 * ((da * da + a * dda) * log_a + 2.0 * da * da) - 4.0 * (
        dp * log_bc + 2.0 * (dm * dm + dd * dd) + ell * dq
    )
    return terms[0] + terms[1] + terms[2], curvature, sum(map(abs, terms))


_AMPLITUDE = hs.one_of(hs.floats(0.0, math.sqrt(3.0)), hs.sampled_from(_EDGES[:7] + [math.nan]))


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(_AMPLITUDE, _AMPLITUDE, hs.one_of(hs.floats(0.0, math.pi / 4.0), hs.sampled_from([0.0, -0.0, math.pi / 6.0])))
@example(1.0, 1.0, 0.0)  # z = 0: b = c = 0 at theta = 0
@example(0.0, math.sqrt(1.5), math.pi / 6.0)  # z = -1/2: c is round-off
@example(1e-200, 0.0, 0.0)  # every x * x underflows to 0
@example(5e-324, 5e-324, 0.0)  # subnormal amplitudes
@example(math.nan, 1.0, 0.1)  # NaN reaches every floor
@example(1.0, math.nan, 0.0)
def test_tiny_floors_are_bit_identical_to_builtin_max(alpha, beta, theta):
    assert _outcome(_theta_derivatives, alpha, beta, theta) == _outcome(_reference_theta_derivatives, alpha, beta, theta)


# ---------------------------------------------------------------------------
# root finders: tangent_from_point and _bisect
# ---------------------------------------------------------------------------

def test_tangent_on_parabola():
    # from (0, -1) the tangent to x^2 touches at t = 1 (line y = 2x - 1)
    t = tangent_from_point(lambda x: x * x, 0.0, -1.0, (0.5, 2.0), df=lambda x: 2.0 * x)
    assert t == pytest.approx(1.0, abs=1e-9)


def test_tangent_reproduces_curve_junctions():
    s, ds = partial(one_vs_rest_entropy, N=3), partial(_one_vs_rest_slope, N=3)
    t_low = tangent_from_point(s, -0.5, LN2, LOWER_TANGENT_BRACKET, df=ds)
    assert t_low == lower_tangent_z()
    t_high = tangent_from_point(s, 1.0, LN3, (0.7, 0.95), df=ds)
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


@pytest.mark.parametrize("root", [Fraction(1, 3), Fraction(1, 10), Fraction(-7, 9)])
def test_bisect_returns_the_nearest_double(root):
    # g exact up to one rounding: the root lies between adjacent doubles, and
    # the one returned is the nearer (below 1/3 and -7/9, above 1/10)
    assert _bisect(lambda x: float(Fraction(x) - root), -1.0, 1.0) == float(root)
    assert _bisect(lambda x: float(root - Fraction(x)), -1.0, 1.0) == float(root)


def test_bisect_stops_at_an_exact_zero():
    # at an iterate, and at either end, which is returned as it is, not
    # bisected away from
    for g, zero in ((lambda x: x - 0.5, 0.5), (lambda x: x, 0.0), (lambda x: x - 1.0, 1.0)):
        assert _bisect(g, 0.0, 1.0) == zero


# The angle solve of min_pure_output_entropy on model derivatives: the slope
# theta (theta^2 - U_ROOT), so that g = slope/theta = u - U_ROOT in
# u = theta^2, with the curvature at theta = 0 negative.
U_ROOT = 0.03
_Z = -0.45


def _angle_solve(monkeypatch, derivatives):
    """theta_min of _min_output_entropy at _Z with _theta_derivatives
    replaced by derivatives(theta) for theta > 0, and the angles it was
    called at; past 1000 calls it fails instead of hanging."""
    thetas = []

    def model(alpha, beta, theta):
        if theta == 0.0:
            return 0.0, -U_ROOT, 0.0
        thetas.append(theta)
        assert len(thetas) <= 1000
        return derivatives(theta)

    monkeypatch.setattr(symmetric_curve, "_theta_derivatives", model)
    return symmetric_curve._min_output_entropy(*_alpha_beta(_Z))[1], thetas


def _model_slope(theta):
    return theta * (theta * theta - U_ROOT)


def test_newton_step_stops_at_an_exact_zero(monkeypatch):
    # a zero slope stops the solve at once, with no round-off allowance
    # (scale 0): here at the second iterate, where the model is set to 0
    calls = []

    def derivatives(theta):
        calls.append(theta)
        return (0.0 if len(calls) == 2 else _model_slope(theta)), 3.0 * theta * theta - U_ROOT, 0.0

    theta, thetas = _angle_solve(monkeypatch, derivatives)
    assert len(thetas) == 2 and theta == thetas[1]


@pytest.mark.parametrize("kind", ["zero", "nan", "outward"])
def test_newton_falls_back_to_bisection(monkeypatch, kind):
    # a zero or NaN derivative of g, and one whose Newton steps leave the
    # bracket, give bisection's points in u = theta^2 after the first, until
    # the bracket [0, (pi/4)^2] is closed around the root
    def derivatives(theta):
        slope = _model_slope(theta)
        g = slope / theta  # as the solve takes it, so that "zero" is exact
        curvature = {"zero": g, "nan": math.nan, "outward": g - 2e-9 * theta * theta}[kind]
        return slope, curvature, 0.0

    theta, thetas = _angle_solve(monkeypatch, derivatives)
    lo, hi, u = 0.0, (math.pi / 4.0) ** 2, (math.pi / 8.0) ** 2
    for t in thetas:
        assert t == math.sqrt(u)
        lo, hi = (u, hi) if _model_slope(t) < 0.0 else (lo, u)
        u = 0.5 * (lo + hi)
    assert u in (lo, hi) and len(thetas) >= 50
    assert abs(theta * theta - U_ROOT) <= 1e-16


def test_angle_solve_raises_on_a_nan_slope_or_no_sign_change(monkeypatch):
    # a NaN slope at an iterate, and a slope negative on all of (0, pi/4]
    for derivatives, match in (
        (lambda theta: (math.nan, 1.0, 0.0), "NaN"),
        (lambda theta: (-theta, -1.0, 0.0), "keeps its sign"),
    ):
        with pytest.raises(ValueError, match=match):
            _angle_solve(monkeypatch, derivatives)


def test_tangent_at_an_end_of_the_bracket():
    # g(t) = t^2 - 1 is zero at the lower end
    assert tangent_from_point(lambda x: x * x, 0.0, -1.0, (1.0, 2.0), df=lambda x: 2.0 * x) == 1.0
    assert tangent_from_point(lambda x: x * x, 0.0, -1.0, (0.5, 1.0), df=lambda x: 2.0 * x) == 1.0
