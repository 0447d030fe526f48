import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.face_minimum import (
    brute_force_min_face,
    lagrange_roots,
    min_face_entropy,
    minimizer_states,
    root_square_sum,
    two_value_entropy,
    zero_sum_basis,
)

LN2 = math.log(2.0)
INV_E = math.exp(-1.0)


def _output_entropy(v: np.ndarray) -> float:
    sq = v * v
    return float(-(sq[sq > 0] * np.log(sq[sq > 0])).sum())


def test_closed_form_small_dimensions():
    for n in range(2, 7):
        assert min_face_entropy(n) == pytest.approx(LN2, abs=1e-15)


def test_closed_form_large_dimensions():
    # direct evaluation of log N - (1 - 2/N) log(N - 1)
    assert min_face_entropy(7) == pytest.approx(
        math.log(7.0) - (5.0 / 7.0) * math.log(6.0), abs=1e-14
    )
    assert min_face_entropy(7) == pytest.approx(0.666082, abs=1e-6)
    for n in (8, 12, 40):
        direct = math.log(n) - (1.0 - 2.0 / n) * math.log(n - 1.0)
        assert min_face_entropy(n) == pytest.approx(direct, abs=1e-13)


def test_closed_form_vanishes_at_large_n():
    assert 0.0 < min_face_entropy(10**6) < 3e-5


def test_closed_form_domain():
    with pytest.raises(ValueError):
        min_face_entropy(1)
    with pytest.raises(TypeError):
        min_face_entropy(7.5)
    assert min_face_entropy(np.int64(7)) == min_face_entropy(7)


def test_bifurcation_between_six_and_seven():
    one_vs_rest_6 = math.log(6.0) - (2.0 / 3.0) * math.log(5.0)
    assert one_vs_rest_6 > LN2
    assert min_face_entropy(7) < LN2


def test_minimizer_states_pair_family():
    states = minimizer_states(3)
    assert len(states) == 3
    for v in states:
        vals = sorted(np.round(np.abs(v), 12))
        assert vals == [0.0, pytest.approx(1 / math.sqrt(2)), pytest.approx(1 / math.sqrt(2))]
        assert _output_entropy(v) == pytest.approx(LN2, abs=1e-12)


def test_minimizer_states_single_for_qubit():
    states = minimizer_states(2)
    assert len(states) == 1
    assert np.allclose(np.abs(states[0]), np.full(2, 1 / math.sqrt(2)))


def test_minimizer_states_one_vs_rest():
    states = minimizer_states(7)
    assert len(states) == 7
    a = 1.0 / math.sqrt(42.0)
    assert np.allclose(states[0], [6 * a, -a, -a, -a, -a, -a, -a], atol=1e-15)


def test_minimizer_states_attain_closed_form():
    for n in range(2, 13):
        closed = min_face_entropy(n)
        for v in minimizer_states(n):
            assert abs(v.sum()) < 1e-12
            assert abs(v @ v - 1.0) < 1e-12
            assert _output_entropy(v) == pytest.approx(closed, abs=1e-12)


def test_minimizer_states_are_stationary():
    # every minimizer solves x log x^2 = lam + mu x for some multipliers
    for n in range(2, 13):
        for v in minimizer_states(n):
            rhs = np.where(np.abs(v) > 0, v * np.log(np.maximum(v * v, 1e-300)), 0.0)
            design = np.stack([np.ones_like(v), v], axis=1)
            coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            assert np.max(np.abs(design @ coef - rhs)) < 1e-8


def test_two_value_entropy_values():
    assert two_value_entropy(4, 2) == pytest.approx(math.log(4.0), abs=1e-14)
    assert two_value_entropy(7, 1) == pytest.approx(min_face_entropy(7), abs=1e-14)
    for n in (5, 9, 17):
        assert two_value_entropy(n, 1) == pytest.approx(
            math.log(n) - (1.0 - 2.0 / n) * math.log(n - 1.0), abs=1e-13
        )


def test_two_value_entropy_symmetry_and_concavity():
    for n_dim in range(3, 51):
        vals = [two_value_entropy(n_dim, n) for n in range(1, n_dim)]
        assert np.all(np.diff(vals, 2) <= 1e-12)
        for n in range(1, n_dim):
            assert two_value_entropy(n_dim, n) == pytest.approx(
                two_value_entropy(n_dim, n_dim - n), abs=1e-12
            )


def test_two_value_entropy_domain():
    with pytest.raises(ValueError):
        two_value_entropy(5, 0)
    with pytest.raises(ValueError):
        two_value_entropy(5, 5)
    with pytest.raises(TypeError):
        two_value_entropy(7.5, 2)
    with pytest.raises(TypeError):
        two_value_entropy(7, 2.5)


def test_lagrange_roots_single_root_regime():
    roots = lagrange_roots(2.0, 0.0)
    assert roots.zeta > INV_E
    assert roots.x2 is None and roots.x3 is None
    assert len(roots.roots) == 1


def test_lagrange_roots_boundary_degeneracy():
    # choose lam so that zeta = 1/e exactly: lam = 2/e with mu = 0
    roots = lagrange_roots(2.0 * INV_E, 0.0)
    assert roots.zeta == pytest.approx(INV_E, abs=1e-16)
    assert roots.x2 == pytest.approx(roots.x3, abs=1e-9)


def test_lagrange_roots_match_direct_scan():
    lam, mu = 0.1, -2.0
    roots = lagrange_roots(lam, mu)
    assert len(roots.roots) == 3
    # independent scan of lam + mu*x - x log x^2 over (-1, 1)
    def fun(x):
        return lam + mu * x - x * math.log(x * x)

    xs = np.linspace(-1.0, 1.0, 20001)
    xs = xs[np.abs(xs) > 1e-6]
    found = []
    for x0, x1 in zip(xs[:-1], xs[1:]):
        if x0 < 0 < x1:
            continue
        if fun(float(x0)) * fun(float(x1)) <= 0.0:
            lo, hi = float(x0), float(x1)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if fun(lo) * fun(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            found.append(0.5 * (lo + hi))
    assert len(found) == 3
    assert np.allclose(sorted(found), sorted(roots.roots), atol=1e-9)


def test_lagrange_roots_residuals_random():
    g = Generator(Philox(key=np.array([40, 0], dtype=np.uint64)))
    checked = 0
    while checked < 200:
        lam = float(g.uniform(-2.0, 2.0))
        if abs(lam) < 1e-3:
            continue
        mu = float(g.uniform(-3.0, 3.0))
        roots = lagrange_roots(lam, mu)
        for x in roots.roots:
            assert abs(lam + mu * x - x * math.log(x * x)) < 1e-9
        checked += 1


def test_lagrange_roots_rejects_zero_lambda():
    with pytest.raises(ValueError):
        lagrange_roots(0.0, 1.0)
    for lam, mu in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)):
        with pytest.raises(ValueError):
            lagrange_roots(lam, mu)


def test_root_square_sum_limits():
    assert root_square_sum(1e-12) == pytest.approx(2.0, abs=1e-9)
    # at the branch point both negative-branch terms equal e^{-2}
    w0_at_inv_e = None
    lo, hi = 0.0, 1.0
    for _ in range(200):  # bisection for w e^w = 1/e
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < INV_E:
            lo = mid
        else:
            hi = mid
    w0_at_inv_e = 0.5 * (lo + hi)
    expected = math.exp(2.0 * w0_at_inv_e) + 2.0 * math.exp(-2.0)
    assert root_square_sum(INV_E) == pytest.approx(expected, abs=1e-10)


def test_root_square_sum_monotone_and_above_two():
    zetas = np.linspace(INV_E / 1000.0, INV_E, 1000)
    vals = np.array([root_square_sum(float(z)) for z in zetas])
    assert np.all(vals > 2.0)
    assert np.all(np.diff(vals) > 0.0)


def test_root_square_sum_domain():
    with pytest.raises(ValueError):
        root_square_sum(0.0)
    with pytest.raises(ValueError):
        root_square_sum(0.5)


def test_three_root_states_cost_more_than_log2():
    g = Generator(Philox(key=np.array([41, 0], dtype=np.uint64)))
    checked = 0
    while checked < 200:
        lam = float(g.uniform(-1.5, 1.5))
        if abs(lam) < 1e-3:
            continue
        mu = float(g.uniform(-3.0, 1.0))
        zeta = 0.5 * abs(lam) * math.exp(-0.5 * mu)
        if zeta > INV_E:
            continue
        if math.exp(mu) * root_square_sum(zeta) <= 1.0:
            assert -mu > LN2
        checked += 1


def test_zero_sum_basis():
    for n in (2, 5, 9):
        basis = zero_sum_basis(n)
        assert basis.shape == (n - 1, n)
        assert np.allclose(basis @ np.ones(n), 0.0, atol=1e-14)
        assert np.allclose(basis @ basis.T, np.eye(n - 1), atol=1e-14)


def test_brute_force_qubit_is_exact():
    value, argmin = brute_force_min_face(2, restarts=3, seed=0)
    assert value == pytest.approx(LN2, abs=1e-12)
    assert np.allclose(np.abs(argmin), np.full(2, 1 / math.sqrt(2)), atol=1e-9)


def test_brute_force_matches_closed_form_small():
    for n in (3, 4, 7):
        value, argmin = brute_force_min_face(n, restarts=50 * n, seed=1)
        assert value == pytest.approx(min_face_entropy(n), abs=1e-6)
        assert value >= min_face_entropy(n) - 1e-9
        assert abs(argmin.sum()) < 1e-10
        assert abs(argmin @ argmin - 1.0) < 1e-10


def test_brute_force_deterministic():
    v1, a1 = brute_force_min_face(5, restarts=20, seed=42)
    v2, a2 = brute_force_min_face(5, restarts=20, seed=42)
    assert v1 == v2
    assert np.array_equal(a1, a2)


def test_brute_force_never_undercuts():
    for n in (3, 5, 8):
        for seed in (0, 1, 2):
            value, _ = brute_force_min_face(n, restarts=10, seed=seed)
            assert value >= min_face_entropy(n) - 1e-9
