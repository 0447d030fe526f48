import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap import roof, symmetric_curve
from diagmap.entropy import eta_array
from diagmap.roof import decomposition_from_isometry, real_roof_upper_bound, roof_upper_bound
from diagmap.states import (
    diagonal_output_entropy,
    pure_to_density,
    symmetric_state,
    twirl_s3,
)
from diagmap.symmetric_curve import (
    entanglement_entropy,
    lower_tangent_z,
    rank2_entanglement,
    rank2_state,
    theta0_entropy,
)

LN2 = math.log(2.0)


def _random_density(g, n=3):
    a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    omega = a @ a.conj().T
    return omega / np.trace(omega).real


def test_identity_isometry_gives_spectral_decomposition():
    omega = np.diag([0.5, 0.3, 0.2]).astype(complex)
    dec = decomposition_from_isometry(omega, np.eye(3))
    assert sorted(np.round(dec.weights, 12)) == [0.2, 0.3, 0.5]
    assert np.allclose(dec.mixture(), omega, atol=1e-12)


def test_isometry_decomposition_of_maximally_mixed():
    dec = decomposition_from_isometry(symmetric_state(0.0), np.eye(3))
    assert np.allclose(dec.weights, 1.0 / 3.0)
    assert np.allclose(dec.mixture(), np.eye(3) / 3.0, atol=1e-12)


def test_isometry_decomposition_pure_state():
    psi = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    omega = pure_to_density(psi)
    u = np.array([[1.0], [0.0], [0.0]])  # length-3 decomposition of rank 1
    u = np.array([[0.6], [0.8], [0.0]])
    dec = decomposition_from_isometry(omega, u / np.linalg.norm(u))
    for s in dec.states:
        overlap = abs(np.vdot(s, psi))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_isometry_decomposition_always_reconstructs():
    g = Generator(Philox(key=np.array([50, 0], dtype=np.uint64)))
    for _ in range(20):
        omega = _random_density(g)
        raw = g.standard_normal((5, 3)) + 1j * g.standard_normal((5, 3))
        u, _ = np.linalg.qr(raw)
        dec = decomposition_from_isometry(omega, u)
        assert np.max(np.abs(dec.mixture() - omega)) < 1e-9
        assert np.all(dec.weights > 0.0)
        assert dec.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_isometry_rank_mismatch_rejected():
    omega = symmetric_state(-0.5)  # rank 2
    with pytest.raises(ValueError):
        decomposition_from_isometry(omega, np.eye(3))
    with pytest.raises(ValueError):
        decomposition_from_isometry(symmetric_state(0.0), np.ones((3, 3)))
    with pytest.raises(ValueError, match="orthonormal"):  # fewer rows than the rank
        decomposition_from_isometry(symmetric_state(0.0), np.eye(2, 3))


def test_roof_pure_state_is_exact():
    g = Generator(Philox(key=np.array([51, 0], dtype=np.uint64)))
    psi = g.standard_normal(3) + 1j * g.standard_normal(3)
    psi /= np.linalg.norm(psi)
    omega = pure_to_density(psi)
    res = roof_upper_bound(omega, m=3, restarts=5, seed=0)
    assert res.value == pytest.approx(diagonal_output_entropy(omega), abs=1e-12)


def test_roof_left_edge_reaches_log2():
    res = roof_upper_bound(symmetric_state(-0.5), m=3, restarts=30, seed=0)
    assert res.value == pytest.approx(LN2, abs=1e-6)


def test_roof_interior_matches_theta0_entropy():
    res = roof_upper_bound(symmetric_state(0.5), m=3, restarts=30, seed=0)
    assert res.value == pytest.approx(theta0_entropy(0.5), abs=1e-5)


def test_roof_maximally_mixed_is_flat():
    res = roof_upper_bound(symmetric_state(0.0), m=4, restarts=5, seed=0)
    assert res.value <= 1e-9


def test_roof_value_matches_its_own_decomposition():
    res = roof_upper_bound(symmetric_state(0.6), m=4, restarts=10, seed=3)
    dec = res.decomposition
    assert res.value == pytest.approx(dec.average_output_entropy(), abs=1e-12)
    assert np.max(np.abs(dec.mixture() - symmetric_state(0.6))) < 1e-9


def test_roof_isometry_reproduces_decomposition():
    omega = symmetric_state(0.4)
    res = roof_upper_bound(omega, m=4, restarts=10, seed=5)
    dec = decomposition_from_isometry(omega, res.isometry)
    assert dec.average_output_entropy() == pytest.approx(res.value, abs=1e-10)


def test_roof_deterministic():
    omega = symmetric_state(-0.3)
    r1 = roof_upper_bound(omega, m=4, restarts=15, seed=9)
    r2 = roof_upper_bound(omega, m=4, restarts=15, seed=9)
    assert r1.value == r2.value
    assert np.array_equal(r1.isometry, r2.isometry)


def test_roof_m_validation():
    omega = symmetric_state(0.0)
    with pytest.raises(ValueError):
        roof_upper_bound(omega, m=2, restarts=3, seed=0)  # below rank
    with pytest.raises(ValueError):
        roof_upper_bound(omega, m=10, restarts=3, seed=0)  # above N^2


@pytest.mark.parametrize("search", [roof_upper_bound, real_roof_upper_bound])
def test_roof_seed_and_budget_validation(search):
    omega = symmetric_state(0.3)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            search(omega, m=3, restarts=2, seed=seed)
    for budget in ({"restarts": 0}, {"restarts": -3}, {"max_sweeps": 0}, {"max_sweeps": -5}):
        with pytest.raises(ValueError, match=next(iter(budget))):
            search(omega, m=3, **{"restarts": 2, **budget})
    for bad in ({"seed": 1.5}, {"restarts": 2.0}, {"max_sweeps": 1.5}):
        with pytest.raises(TypeError):
            search(omega, m=3, **{"restarts": 2, **bad})
    # the ends of the ranges and numpy integers are accepted
    for seed in (0, 2**64 - 1, np.uint64(7)):
        res = search(omega, m=3, restarts=np.int64(2), seed=seed, max_sweeps=1)
        assert res.value >= entanglement_entropy(0.3) - 1e-9


def test_roof_monotone_in_m_with_nested_starts():
    omega = symmetric_state(-0.45).real
    prev = real_roof_upper_bound(omega, m=3, restarts=20, seed=2)
    for m in (4, 5, 6):
        pad = np.vstack(
            [prev.isometry, np.zeros((m - prev.isometry.shape[0], prev.isometry.shape[1]))]
        )
        res = real_roof_upper_bound(omega, m=m, restarts=20, seed=2, extra_inits=[pad])
        assert res.value <= prev.value + 1e-12
        prev = res


def test_roof_rejects_extra_inits_that_are_not_isometries():
    # each of these once gave a bound of 0.0 or 0.0496, far below E(0.3) = 0.1986
    omega = symmetric_state(0.3).real
    for U in (np.zeros((3, 3)), np.full((3, 3), np.nan), 0.5 * np.eye(3)):
        with pytest.raises(ValueError, match="orthonormal|non-finite"):
            real_roof_upper_bound(omega, m=3, restarts=1, seed=0, extra_inits=[U])
    for bad in (np.full((3, 3), np.inf), np.eye(3) + 1e-9):
        with pytest.raises(ValueError, match="orthonormal|non-finite"):
            roof_upper_bound(symmetric_state(0.3), m=3, restarts=1, seed=0, extra_inits=[bad])
        with pytest.raises(ValueError, match="orthonormal|non-finite"):
            decomposition_from_isometry(symmetric_state(0.3), bad)


def test_real_roof_requires_real_symmetric():
    g = Generator(Philox(key=np.array([52, 0], dtype=np.uint64)))
    omega = _random_density(g)
    with pytest.raises(ValueError):
        real_roof_upper_bound(omega)


def test_real_roof_matches_curve_on_sample():
    for z, tol in ((-0.5, 1e-9), (0.0, 1e-9), (0.35, 1e-6), (0.9, 1e-6)):
        res = real_roof_upper_bound(symmetric_state(z).real, m=6, restarts=60, seed=4)
        assert res.value == pytest.approx(entanglement_entropy(z), abs=max(tol, 1e-6))
        assert res.value >= entanglement_entropy(z) - 1e-9


def test_real_roof_two_orbit_region():
    zstar = lower_tangent_z()
    z = 0.5 * (zstar - 0.5)
    res = real_roof_upper_bound(symmetric_state(z).real, m=6, restarts=150, seed=11)
    assert res.value == pytest.approx(entanglement_entropy(z), abs=1e-5)


def test_real_roof_next_to_tangency_point():
    # just above z* the coordinate descent stalls in an ill-conditioned
    # valley; the median excess over E at the roof_curve budget was 1.7e-6
    # with a golden-section line search and is 3.2e-7 with the Newton one
    z = -0.41
    omega = symmetric_state(z).real
    excess = [
        real_roof_upper_bound(omega, m=6, restarts=32, max_sweeps=150, seed=seed).value - entanglement_entropy(z)
        for seed in range(1001, 1006)
    ]
    assert min(excess) >= -1e-12
    assert float(np.median(excess)) < 6e-7


def test_real_roof_matches_rank2_closed_form():
    g = Generator(Philox(key=np.array([53, 0], dtype=np.uint64)))
    for _ in range(3):
        z = float(g.uniform(0.2, 0.8))
        phi = float(g.uniform(0.0, 2.0 * math.pi))
        a, b = math.cos(phi), math.sin(phi)
        x = float(g.uniform(-0.9, 0.9)) * math.sqrt(z * (1.0 - z))
        omega = rank2_state(z, x, a, b).real
        res = real_roof_upper_bound(omega, m=4, restarts=60, seed=6)
        assert res.value == pytest.approx(rank2_entanglement(z, x, a, b), abs=1e-5)


def test_roof_upper_bounds_twirled_curve():
    g = Generator(Philox(key=np.array([54, 0], dtype=np.uint64)))
    for _ in range(10):
        omega = _random_density(g)
        bound = roof_upper_bound(omega, restarts=5, seed=1).value
        assert bound >= entanglement_entropy(twirl_s3(omega)) - 1e-6


def test_roof_default_m_is_caratheodory_length_in_two_orbit_region():
    # below z* the curve needs two permutation orbits, six states; the
    # default real length rank(rank+1)/2 = 6 reaches it in one search
    z = -0.46
    res = roof_upper_bound(symmetric_state(z), restarts=60, seed=8)
    assert res.value == pytest.approx(entanglement_entropy(z), abs=1e-5)
    assert res.isometry.shape[0] == 6


def test_roof_does_not_read_the_closed_form(monkeypatch):
    def closed_form(*args, **kwargs):
        raise AssertionError("the search read the closed form")

    monkeypatch.setattr(symmetric_curve, "entanglement_entropy", closed_form)
    monkeypatch.setattr(symmetric_curve, "lower_tangent_z", closed_form)
    res = roof_upper_bound(symmetric_state(-0.46), restarts=4, seed=0)
    assert res.isometry.shape == (6, 3)


def test_roof_default_m_for_complex_rank2_and_rank1():
    g = Generator(Philox(key=np.array([57, 0], dtype=np.uint64)))
    psi = g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    omega = 0.7 * pure_to_density(psi[0]) + 0.3 * pure_to_density(psi[1])
    res = roof_upper_bound(omega, restarts=3, seed=0)
    assert res.isometry.shape == (4, 2)  # rank^2 for a complex search
    assert np.max(np.abs(res.decomposition.mixture() - omega)) < 1e-9
    pure = pure_to_density(psi[0])
    res = roof_upper_bound(pure, restarts=3, seed=0)
    assert res.isometry.shape == (1, 1)
    assert res.value == pytest.approx(diagonal_output_entropy(pure), abs=1e-12)


@pytest.mark.parametrize("complex_rows, phase", [(False, False), (True, False), (True, True)])
def test_pair_coefficients_match_explicit_rotation(complex_rows, phase):
    g = Generator(Philox(key=np.array([55, 0], dtype=np.uint64)))
    shape = (40, 3)
    X = g.standard_normal(shape) + (1j * g.standard_normal(shape) if complex_rows else 0.0)
    Y = g.standard_normal(shape) + (1j * g.standard_normal(shape) if complex_rows else 0.0)
    X *= 0.6 / np.linalg.norm(X, axis=1, keepdims=True)
    Y *= g.uniform(0.0, 0.8, (40, 1)) / np.linalg.norm(Y, axis=1, keepdims=True)
    K0, K1, K2, w = roof._pair_coefficients(X, Y, phase)
    for t in (np.zeros(40), g.uniform(-math.pi, math.pi, 40)):
        Xr, Yr = roof._rotate(X, Y, t, phase)
        explicit = roof._row_entropy_parts(abs(Xr) ** 2) + roof._row_entropy_parts(abs(Yr) ** 2)
        probe = eta_array(K0 + K1 * np.cos(2 * t)[:, None] + K2 * np.sin(2 * t)[:, None]) @ w
        assert np.max(np.abs(probe - explicit)) < 1e-13


@pytest.mark.parametrize("m, complex_moves", [(6, False), (6, True), (5, False), (5, True)])
def test_round_batch_matches_pairs_one_at_a_time(m, complex_moves):
    g = Generator(Philox(key=np.array([56, m], dtype=np.uint64)))
    omega = symmetric_state(-0.3)
    M = roof._eigen_factor(omega if complex_moves else omega.real)
    raw = g.standard_normal((7, m, 3)) + (1j * g.standard_normal((7, m, 3)) if complex_moves else 0.0)
    W = np.stack([np.linalg.qr(a)[0] for a in raw])
    T = W @ M.T
    f = roof._objective(T)
    idx = np.array([0, 2, 3, 6])
    for I, J, phase in roof._sweep_schedule(m, complex_moves):
        Tb, Wb, fb = T.copy(), W.copy(), f.copy()
        t_batch, ok_batch = roof._round(Tb, Wb, fb, idx, I, J, phase)
        Ts, Ws, fs = T.copy(), W.copy(), f.copy()
        singles = [roof._round(Ts, Ws, fs, idx, I[p : p + 1], J[p : p + 1], phase) for p in range(len(I))]
        assert np.array_equal(t_batch, np.hstack([t for t, _ in singles]))
        assert np.array_equal(ok_batch, np.hstack([ok for _, ok in singles]))
        assert ok_batch.any()
        assert np.array_equal(Tb, Ts) and np.array_equal(Wb, Ws)
        assert np.max(np.abs(fb - fs)) < 1e-14
        assert np.max(np.abs(fb - roof._objective(Tb))) < 1e-13
        T, W, f = Tb, Wb, fb


@pytest.mark.parametrize("m", range(2, 10))
def test_sweep_schedule_covers_every_move_once(m):
    for complex_moves in (False, True):
        batches = roof._sweep_schedule(m, complex_moves)
        assert len(batches) == (m - 1 if m % 2 == 0 else m) * (2 if complex_moves else 1)
        moves = []
        for I, J, phase in batches:
            assert len(I) == m // 2 and np.all(I < J)
            assert len(set(I) | set(J)) == 2 * len(I)  # disjoint pairs
            moves += [(i, j, phase) for i, j in zip(I.tolist(), J.tolist())]
        phases = (False, True) if complex_moves else (False,)
        expected = [(i, j, ph) for i in range(m) for j in range(i + 1, m) for ph in phases]
        assert sorted(moves) == sorted(expected)
