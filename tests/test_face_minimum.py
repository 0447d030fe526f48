import math
import sys
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap import face_minimum, linesearch
from diagmap.face_minimum import (
    RESTARTS_PER_N,
    brute_force_min_face,
    lagrange_roots,
    min_face_entropy,
    minimizer_states,
    pair_states_minimize,
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
    for fn in (minimizer_states, lambda n: brute_force_min_face(n, restarts=1)):
        with pytest.raises(ValueError):
            fn(1)
        with pytest.raises(TypeError):
            fn(7.0)


def test_closed_form_propagates_nan(monkeypatch):
    monkeypatch.setattr(face_minimum, "two_value_entropy", lambda N, n: math.nan)
    assert math.isnan(min_face_entropy(7))


def test_bifurcation_between_six_and_seven():
    one_vs_rest_6 = math.log(6.0) - (2.0 / 3.0) * math.log(5.0)
    assert one_vs_rest_6 > LN2
    assert min_face_entropy(7) < LN2
    # the family switch is computed, not written down
    assert [pair_states_minimize(n) for n in range(2, 13)] == [True] * 5 + [False] * 6
    assert [len(minimizer_states(n)) for n in (5, 6, 7, 8)] == [10, 15, 7, 8]
    for n in range(2, 200):
        assert min_face_entropy(n) == min(two_value_entropy(n, 1), LN2)


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


def test_minimizer_states_too_long_to_index_raise_memory_error(monkeypatch):
    # numpy would refuse this length with a ValueError; the refusal comes
    # first, so nothing is asked of numpy
    monkeypatch.setattr(np, "full", None)
    with pytest.raises(MemoryError, match="more bytes than an index can count"):
        minimizer_states(sys.maxsize // 8 + 1)


def test_minimizer_states_attain_closed_form():
    for n in range(2, 13):
        closed = min_face_entropy(n)
        for v in minimizer_states(n):
            assert abs(v.sum()) < 1e-12
            assert abs(v @ v - 1.0) < 1e-12
            assert _output_entropy(v) == pytest.approx(closed, abs=1e-12)


def test_two_value_entropy_values():
    assert two_value_entropy(4, 2) == pytest.approx(math.log(4.0), abs=1e-14)
    assert two_value_entropy(7, 1) == pytest.approx(min_face_entropy(7), abs=1e-14)
    for n in (5, 9, 17):
        assert two_value_entropy(n, 1) == pytest.approx(
            math.log(n) - (1.0 - 2.0 / n) * math.log(n - 1.0), abs=1e-13
        )


def test_two_value_entropy_symmetry():
    for n_dim in range(3, 51):
        for n in range(1, n_dim):
            assert two_value_entropy(n_dim, n) == two_value_entropy(n_dim, n_dim - n)


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


def test_stationary_roots_are_immutable():
    roots = lagrange_roots(0.3, 0.1)
    for field in ("lam", "mu", "zeta", "x1", "x2", "x3"):
        with pytest.raises(AttributeError):
            setattr(roots, field, 1.0)
    assert len(roots.roots) == 3


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
    # numeric strings, which float() would parse
    for lam, mu in (("0.5", 1.0), (0.5, "1")):
        with pytest.raises(TypeError):
            lagrange_roots(lam, mu)
    # from (1.0, 1420.0) on: zeta is subnormal (its roots overflow to +-inf),
    # zeta underflows to 0, exp(-mu/2) overflows, and a normal zeta whose
    # roots overflow
    bad = ((math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf))
    for lam, mu in bad + ((1.0, 1420.0), (1.0, 1489.0), (1.0, -1420.0), (1e10, 1420.0)):
        with pytest.raises(ValueError):
            lagrange_roots(lam, mu)


def test_lagrange_roots_at_huge_zeta():
    # zeta = 1.36e308: W0 once stayed at its start here, 1.3e-5 off, and
    # x1 came back wrong without an error
    lam, mu = 1e308, -2.0
    (x1,) = lagrange_roots(lam, mu).roots
    assert abs(2.0 * x1 * math.log(x1) - mu * x1 - lam) <= 1e-15 * lam


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
    with pytest.raises(TypeError):
        root_square_sum("0.1")


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
    for n in (3, 4, 7, 16, 32):
        value, argmin = brute_force_min_face(n, restarts=50 * n, seed=1)
        assert value == pytest.approx(min_face_entropy(n), abs=1e-6)
        assert value >= min_face_entropy(n) - 1e-9
        assert abs(argmin.sum()) < 1e-10
        assert abs(argmin @ argmin - 1.0) < 1e-10


def _sphere_search(B, C):
    """The engine on linesearch.sphere_functions(B) from the unit rows of C:
    the states Bc and the values it ends at."""
    funcs = linesearch.sphere_functions(B)
    W, f, _, _ = linesearch.stiefel_bfgs(C[:, :, None], funcs)
    return np.einsum("ij,bj->bi", B, W[:, :, 0]), f, funcs(C[:, :, None])[0]


def _unit_rows(Y):
    return Y / np.linalg.norm(Y, axis=1, keepdims=True)


def _zero_sum_case(n, rows=40):
    g = Generator(Philox(key=np.array([57, n], dtype=np.uint64)))
    return zero_sum_basis(n).T, _unit_rows(g.standard_normal((rows, n - 1)))


def _eigenbasis_case():
    g = Generator(Philox(key=np.array([57, 0], dtype=np.uint64)))
    a = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    B = np.linalg.eigh(a @ a.conj().T)[1]
    return B, _unit_rows(g.standard_normal((24, 4)) + 1j * g.standard_normal((24, 4)))


@pytest.mark.parametrize(
    "B, starts, every",
    [
        (*_zero_sum_case(5), 1),
        (*_zero_sum_case(7), 1),
        (*_zero_sum_case(12), 1),
        (*_eigenbasis_case(), 1),
        (*_zero_sum_case(12, 600), 25),
    ],
    ids=["5", "7", "12", "complex", "12-600-rows"],
)
def test_descent_batch_matches_rows_one_at_a_time(B, starts, every):
    # the face search runs the kernel on the zero-sum basis, at N = 12 on 600
    # rows, the pricing on the complex eigenbasis of a state; every row
    # alone, or every 25th of the 600, ends where it ends in the batch
    A_batch, f_batch, start = _sphere_search(B, starts)
    singles = [_sphere_search(B, starts[k : k + 1]) for k in range(0, len(starts), every)]
    assert np.array_equal(A_batch[::every], np.vstack([A for A, _, _ in singles]))
    assert np.array_equal(f_batch[::every], np.hstack([f for _, f, _ in singles]))
    assert np.all(f_batch < start)
    # every returned row stays a unit vector, and a zero-sum one on the face
    assert np.max(np.abs(np.linalg.norm(A_batch, axis=1) - 1.0)) < 1e-14
    if np.isrealobj(B):
        assert np.max(np.abs(A_batch.sum(axis=1))) < 1e-14


def test_qubit_search_stops_at_once_without_warnings(monkeypatch):
    # for N = 2 the zero-sum unit sphere is two points: the engine finds a
    # zero tangent gradient and stops at iteration 0
    runs = []
    engine = face_minimum.stiefel_bfgs

    def recorded(*args):
        runs.append(engine(*args))
        return runs[-1]

    monkeypatch.setattr(face_minimum, "stiefel_bfgs", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, argmin = brute_force_min_face(2, restarts=5, seed=3)
    (W, f, iterations, capped), = runs
    assert not iterations.any() and not capped.any()
    assert np.all(f == value) and value == pytest.approx(LN2, abs=1e-15)


def _face_search_draws(monkeypatch, N, restarts, seed):
    """The starts (reduced coordinates, one row each) that
    brute_force_min_face hands the engine, and its stream_rng calls."""
    starts, streams = [], []
    engine, rng = linesearch.stiefel_bfgs, linesearch.stream_rng

    def recorded(W, *args):
        starts.append(W[:, :, 0].copy())
        return engine(W, *args)

    def counted(*args):
        streams.append(args)
        return rng(*args)

    monkeypatch.setattr(face_minimum, "stiefel_bfgs", recorded)
    monkeypatch.setattr(face_minimum, "stream_rng", counted)
    brute_force_min_face(N, restarts, seed)
    (Y,) = starts
    return Y, streams


@pytest.mark.parametrize("N, restarts, more, seed", [(2, 3, 5, 0), (7, 20, 350, 4), (12, 1, 600, 9)])
def test_face_search_draws_every_start_at_once(monkeypatch, N, restarts, more, seed):
    Y, streams = _face_search_draws(monkeypatch, N, restarts, seed)
    Y_more, streams_more = _face_search_draws(monkeypatch, N, more, seed)
    # one generator per search, and restart k's start does not depend on
    # the number of restarts
    assert streams == [(seed, 0)] and streams_more == [(seed, 0)]
    assert Y.shape == (restarts, N - 1) and Y_more.shape == (more, N - 1)
    assert np.array_equal(Y, Y_more[:restarts])
    y = linesearch.stream_rng(seed, 0).standard_normal(N - 1)
    assert np.array_equal(Y[0], y / np.linalg.norm(y))
    # every start is a unit vector of the zero-sum hyperplane
    A = Y_more @ zero_sum_basis(N)
    assert np.max(np.abs(np.linalg.norm(A, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(A.sum(axis=1))) < 1e-14


def test_brute_force_deterministic():
    v1, a1 = brute_force_min_face(5, restarts=20, seed=42)
    v2, a2 = brute_force_min_face(5, restarts=20, seed=42)
    assert v1 == v2
    assert np.array_equal(a1, a2)


def test_brute_force_default_budget_is_restarts_per_n():
    value, argmin = brute_force_min_face(7)
    ref_value, ref_argmin = brute_force_min_face(7, restarts=RESTARTS_PER_N * 7, seed=0)
    assert value == ref_value and np.array_equal(argmin, ref_argmin)


def test_brute_force_never_undercuts():
    for n in (3, 5, 8):
        for seed in (0, 1, 2):
            value, _ = brute_force_min_face(n, restarts=10, seed=seed)
            assert value >= min_face_entropy(n) - 1e-9


def test_brute_force_seed_and_budget_validation():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            brute_force_min_face(4, restarts=2, seed=seed)
    for restarts in (0, -2):
        with pytest.raises(ValueError, match="restarts"):
            brute_force_min_face(4, restarts=restarts)
    with pytest.raises(TypeError):
        brute_force_min_face(4, restarts=2, seed=1.5)
    with pytest.raises(TypeError):
        brute_force_min_face(4, restarts=2.0)
    for seed in (2**64 - 1, np.uint64(7)):
        value, _ = brute_force_min_face(4, restarts=2, seed=seed)
        assert value >= min_face_entropy(4) - 1e-9
