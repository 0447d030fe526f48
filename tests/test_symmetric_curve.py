import itertools
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.states import diagonal_output_entropy, pure_to_density, symmetric_state, twirl_s3
from diagmap.symmetric_curve import (
    INVPHI,
    REGION_LOWER_LINEAR,
    REGION_ROOF,
    REGION_UPPER_LINEAR,
    UPPER_KNEE,
    _orbit,
    _piece,
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


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_abc_rejects_non_finite_theta(theta):
    # a NaN angle once gave a ThetaPoint of NaNs
    with pytest.raises(ValueError, match="finite"):
        abc_from_theta(0.3, theta)


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


def test_theta_min_grows_like_a_square_root_below_the_transition():
    # a pitchfork: theta = 0 turns from a minimum into a maximum at z_t, and
    # theta_min^2 / (z_t - z) tends to 6 |dK/dz| / K4 = 1.859 (K the
    # theta-curvature at theta = 0, K4 the fourth theta-derivative)
    zt = theta_transition()
    ratios = [min_pure_output_entropy(zt - d)[1] ** 2 / d for d in (1e-3, 1e-4, 1e-5)]
    assert ratios == pytest.approx([1.859] * 3, rel=3e-3)
    assert min_pure_output_entropy(zt + 1e-4)[1] == 0.0


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
        amps = abc_from_theta(z_end, theta).amps
        got = _orbit(amps)
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
        a, b, c = v
        rows = _orbit(v)
        assert rows.shape == (3, 3)
        mixture = sum(np.outer(r, r) for r in rows) / 3.0
        assert np.max(np.abs(mixture - symmetric_state(a * b + b * c + c * a))) <= 1e-15
        entropies = {diagonal_output_entropy(pure_to_density(r)) for r in rows}
        assert len(entropies) == 1
    assert _orbit(np.full(3, 1.0 / math.sqrt(3.0))).shape == (1, 3)


def _reference_min_entropy(z):
    # the former min_pure_output_entropy: grid set up per call, a masked
    # eta loop and a per-probe recomputation of alpha and beta
    def amplitudes(z, theta):
        alpha = math.sqrt(max(2.0 * z + 1.0, 0.0))
        beta = math.sqrt(max(1.0 - z, 0.0))
        return (
            (alpha + 2.0 * beta * math.cos(theta)) / 3.0,
            (alpha - 2.0 * beta * math.cos(theta - math.pi / 3.0)) / 3.0,
            (alpha - 2.0 * beta * math.cos(theta + math.pi / 3.0)) / 3.0,
        )

    def entropy_at(z, theta):
        out = 0.0
        for v in (c * c for c in amplitudes(z, theta)):
            if v > 1e-300:
                out -= v * math.log(v)
        return out

    period = math.pi / 3.0
    alpha = math.sqrt(max(2.0 * z + 1.0, 0.0))
    beta = math.sqrt(max(1.0 - z, 0.0))
    if beta == 0.0:
        return LN3, 0.0
    grid = np.linspace(0.0, period, 256)
    ca = (alpha + 2.0 * beta * np.cos(grid)) / 3.0
    cb = (alpha - 2.0 * beta * np.cos(grid - math.pi / 3.0)) / 3.0
    cc = (alpha - 2.0 * beta * np.cos(grid + math.pi / 3.0)) / 3.0
    vals = np.zeros_like(grid)
    for comp in (ca, cb, cc):
        sq = comp * comp
        pos = sq > 1e-300
        vals[pos] -= sq[pos] * np.log(sq[pos])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, 255)]
    c = hi - INVPHI * (hi - lo)
    d = lo + INVPHI * (hi - lo)
    fc = entropy_at(z, c)
    fd = entropy_at(z, d)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - INVPHI * (hi - lo)
            fc = entropy_at(z, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INVPHI * (hi - lo)
            fd = entropy_at(z, d)
    theta = float(0.5 * (lo + hi))
    value = entropy_at(z, theta)
    value0 = entropy_at(z, 0.0)
    if value0 <= value + 1e-13:
        return value0, 0.0
    if theta < 1e-9:
        theta = 0.0
    elif theta > period / 2.0:
        mirror = period - theta
        if entropy_at(z, mirror) <= value + 1e-12:
            theta = mirror
    return value, theta


def test_min_entropy_bit_identical_to_former_scan():
    zs = [-0.5, -0.45, -0.40, lower_tangent_z(), UPPER_KNEE, 1.0, 0.0, -0.41, -0.4150234]
    zs += [float(z) for z in np.linspace(-0.45, -0.40, 15)]
    zs += [float(z) for z in np.linspace(-0.5, 1.0, 26)]
    for z in zs:
        value, theta = min_pure_output_entropy(z)
        ref_value, ref_theta = _reference_min_entropy(z)
        assert (float(value).hex(), float(theta).hex()) == (ref_value.hex(), ref_theta.hex()), z
