import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.states import diagonal_output_entropy, pure_to_density, symmetric_state, twirl_s3
from diagmap.symmetric_curve import (
    REGION_LOWER_LINEAR,
    REGION_ROOF,
    REGION_UPPER_LINEAR,
    UPPER_KNEE,
    abc_from_theta,
    curve_grid,
    curve_record,
    entanglement_entropy,
    lower_tangent_z,
    min_pure_output_entropy,
    optimal_decomposition,
    rank2_entanglement,
    rank2_state,
    theta0_entropy,
    theta_transition,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


# ---------------------------------------------------------------------------
# parametrization
# ---------------------------------------------------------------------------

def test_abc_at_origin():
    # z = 0, theta = 0: alpha = beta = 1, cos(+-pi/3) = 1/2 gives (1, 0, 0)
    pt = abc_from_theta(0.0, 0.0)
    assert np.allclose(pt.amps, [1.0, 0.0, 0.0], atol=1e-15)


def test_abc_at_left_edge():
    # z = -1/2, theta = 0: alpha = 0, beta = sqrt(3/2) gives (2,-1,-1)/sqrt(6)
    pt = abc_from_theta(-0.5, 0.0)
    assert np.allclose(pt.amps, np.array([2.0, -1.0, -1.0]) / math.sqrt(6.0), atol=1e-15)


def test_abc_at_right_edge_any_theta():
    for theta in (0.0, 0.4, 1.0):
        pt = abc_from_theta(1.0, theta)
        assert np.allclose(pt.amps, np.full(3, 1.0 / math.sqrt(3.0)), atol=1e-15)


def test_abc_constraints_hold_everywhere():
    g = Generator(Philox(key=np.array([30, 0], dtype=np.uint64)))
    for _ in range(300):
        z = float(g.uniform(-0.5, 1.0))
        theta = float(g.uniform(0.0, 2.0 * math.pi))
        a, b, c = abc_from_theta(z, theta).amps
        assert abs(a * a + b * b + c * c - 1.0) < 1e-12
        assert abs(a * b + b * c + c * a - z) < 1e-12


def test_abc_domain_error():
    with pytest.raises(ValueError):
        abc_from_theta(-0.6, 0.0)


# ---------------------------------------------------------------------------
# theta = 0 entropy and the pointwise minimum
# ---------------------------------------------------------------------------

def test_theta0_entropy_values():
    assert theta0_entropy(1.0) == pytest.approx(LN3, abs=1e-15)
    assert theta0_entropy(0.0) == 0.0
    assert theta0_entropy(lower_tangent_z()) == pytest.approx(0.470016, abs=1e-5)
    assert theta0_entropy(UPPER_KNEE) == pytest.approx(LN3 - LN2 / 3.0, abs=1e-14)


def test_min_entropy_examples():
    value, theta = min_pure_output_entropy(0.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert theta == 0.0
    value, theta = min_pure_output_entropy(5.0 / 6.0)
    assert value == pytest.approx(0.867563, abs=1e-6)
    assert theta == 0.0
    value, theta = min_pure_output_entropy(-0.5)
    assert value == pytest.approx(LN2, abs=1e-12)
    assert theta == pytest.approx(math.pi / 6.0, abs=1e-6)


def test_min_entropy_agrees_with_direct_scan():
    # independent check: dense scan over the full period
    g = Generator(Philox(key=np.array([31, 0], dtype=np.uint64)))
    for _ in range(10):
        z = float(g.uniform(-0.5, 1.0))
        value, _ = min_pure_output_entropy(z)
        thetas = np.linspace(0.0, 2.0 * math.pi, 20001)
        best = min(
            diagonal_output_entropy(pure_to_density(abc_from_theta(z, float(t)).amps))
            for t in thetas[:: 400]
        )
        assert value <= best + 1e-9


def test_min_entropy_matches_theta0_on_roof_region():
    zs = np.linspace(lower_tangent_z(), UPPER_KNEE, 40)
    for z in zs:
        value, theta = min_pure_output_entropy(float(z))
        assert theta == 0.0
        assert value == pytest.approx(theta0_entropy(float(z)), abs=1e-10)


def test_theta_transition_location():
    zt = theta_transition()
    assert zt == pytest.approx(-0.4150234, abs=1e-4)
    assert -0.41503 < zt < -0.41502
    assert min_pure_output_entropy(-0.40)[1] == 0.0
    assert min_pure_output_entropy(-0.45)[1] > 1e-6


# ---------------------------------------------------------------------------
# tangency point and the piecewise curve
# ---------------------------------------------------------------------------

def test_lower_tangent_z_value():
    zstar = lower_tangent_z()
    assert zstar == pytest.approx(-0.4079496711, abs=1e-6)
    # the chord through (-1/2, log 2) is tangent: slopes agree at z*
    h = 1e-6 * (1.0 + abs(zstar))
    slope_curve = (theta0_entropy(zstar + h) - theta0_entropy(zstar - h)) / (2.0 * h)
    slope_chord = (theta0_entropy(zstar) - LN2) / (zstar + 0.5)
    assert slope_curve == pytest.approx(slope_chord, abs=1e-5)


def test_entanglement_entropy_anchors():
    assert entanglement_entropy(-0.5) == pytest.approx(LN2, abs=1e-9)
    assert entanglement_entropy(0.0) == pytest.approx(0.0, abs=1e-9)
    assert entanglement_entropy(1.0) == pytest.approx(LN3, abs=1e-9)


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


def test_curve_is_hull_of_sampled_minima():
    from diagmap.hull import SampledCurve, lower_convex_hull

    zs = np.linspace(-0.5, 1.0, 1351)
    eps = np.array([min_pure_output_entropy(float(z))[0] for z in zs])
    hull = lower_convex_hull(SampledCurve(xs=zs, ys=eps))
    ed = np.array([entanglement_entropy(float(z)) for z in zs])
    # grid resolution limits agreement; a finer grid tightens this bound
    assert np.max(np.abs(hull.hull_ys - ed)) < 2e-4


def test_entanglement_entropy_domain():
    with pytest.raises(ValueError):
        entanglement_entropy(1.2)


def test_curve_record_regions():
    assert curve_record(-0.5).region == REGION_LOWER_LINEAR
    assert curve_record(0.0).region == REGION_ROOF
    assert curve_record(0.9).region == REGION_UPPER_LINEAR
    rec = curve_record(-0.5)
    assert rec.ed == pytest.approx(LN2, abs=1e-9)
    assert rec.theta_min == pytest.approx(math.pi / 6.0, abs=1e-6)
    assert rec.ed <= rec.epsilon + 1e-9


def test_curve_grid():
    zs = curve_grid(-0.5, 1.0, 1e-3)
    assert zs.size == 1501
    assert zs[0] == -0.5
    assert zs[-1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        curve_grid(-0.5, 1.0, 0.0)
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


def test_decomposition_reconstructs_and_attains_curve():
    for z in np.linspace(-0.5, 1.0, 50):
        dec = optimal_decomposition(float(z))
        assert np.max(np.abs(dec.mixture() - symmetric_state(float(z)))) < 1e-9
        assert abs(dec.average_output_entropy() - entanglement_entropy(float(z))) < 1e-8


def test_decomposition_members_twirl_onto_orbit_parameters():
    zstar = lower_tangent_z()
    for z in (-0.48, -0.2, 0.4, 0.95):
        dec = optimal_decomposition(z)
        weighted = 0.0
        for w, s in zip(dec.weights, dec.states):
            zi = twirl_s3(pure_to_density(s))
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
