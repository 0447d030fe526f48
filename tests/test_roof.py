import inspect
import math
from functools import partial

import numpy as np
import pytest
from numpy.random import Generator, Philox

import diagmap
from diagmap import linesearch, roof, symmetric_curve
from diagmap.roof import roof_upper_bound
from diagmap.states import (
    _entropy_sum,
    diagonal_output_entropy,
    rank2_state,
    symmetric_state,
    twirl_s3,
)
from diagmap.symmetric_curve import (
    _one_vs_rest_slope,
    entanglement_entropy,
    lower_tangent_z,
    one_vs_rest_entropy,
    rank2_entanglement,
    tangent_from_point,
)

LN2 = math.log(2.0)


def _random_density(g, n=3):
    a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    omega = a @ a.conj().T
    return omega / np.trace(omega).real


def _projector(psi):
    return np.outer(psi, np.conj(psi))


def _decomposition(omega, U):
    """The decomposition an isometry U stands for in a search of omega: the
    rows of conj(U) M^T, M the eigenfactor the search uses."""
    return roof._decomposition_from_vectors(np.asarray(U).conj() @ roof._eigen_factor(omega).T)


def test_identity_isometry_gives_spectral_decomposition():
    omega = np.diag([0.5, 0.3, 0.2]).astype(complex)
    dec = _decomposition(omega, np.eye(3))
    assert sorted(np.round(dec.weights, 12)) == [0.2, 0.3, 0.5]
    assert np.allclose(dec.mixture(), omega, atol=1e-12)


def test_isometry_decomposition_of_maximally_mixed():
    dec = _decomposition(symmetric_state(0.0), np.eye(3))
    assert np.allclose(dec.weights, 1.0 / 3.0)
    assert np.allclose(dec.mixture(), np.eye(3) / 3.0, atol=1e-12)


def test_isometry_decomposition_pure_state():
    # length-3 decompositions of a rank-1 state: every member is psi, and
    # only the zero-weight rows are dropped
    psi = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    omega = _projector(psi)
    for column, weights in (([1.0, 0.0, 0.0], [1.0]), ([0.6, 0.8, 0.0], [0.36, 0.64])):
        u = np.array(column)[:, None]
        dec = _decomposition(omega, u / np.linalg.norm(u))
        assert len(dec) == len(weights)
        assert dec.weights.tolist() == pytest.approx(weights, abs=1e-15)  # reads 1.1e-16
        for s in dec.states:
            overlap = abs(np.vdot(s, psi))
            assert overlap == pytest.approx(1.0, abs=1e-12)


def test_isometry_decomposition_always_reconstructs():
    g = Generator(Philox(key=np.array([50, 0], dtype=np.uint64)))
    for _ in range(20):
        omega = _random_density(g)
        raw = g.standard_normal((5, 3)) + 1j * g.standard_normal((5, 3))
        u, _ = np.linalg.qr(raw)
        dec = _decomposition(omega, u)
        assert np.max(np.abs(dec.mixture() - omega)) < 1e-14  # reads 1.05e-15
        assert np.all(dec.weights > 0.0)
        assert dec.weights.sum() == pytest.approx(1.0, abs=2e-14)  # reads 1.78e-15


def test_roof_pure_state_is_exact():
    g = Generator(Philox(key=np.array([51, 0], dtype=np.uint64)))
    psi = g.standard_normal(3) + 1j * g.standard_normal(3)
    psi /= np.linalg.norm(psi)
    omega = _projector(psi)
    res = roof_upper_bound(omega, m=3, restarts=5, seed=0)
    assert res.value == pytest.approx(diagonal_output_entropy(omega), abs=1e-12)


def test_roof_left_edge_reaches_log2():
    res = roof_upper_bound(symmetric_state(-0.5), m=3, restarts=30, seed=0)
    assert res.value == pytest.approx(LN2, abs=1e-15)  # reads 1.1e-16


def test_roof_interior_matches_theta0_entropy():
    res = roof_upper_bound(symmetric_state(0.5), m=3, restarts=30, seed=0)
    assert res.value == pytest.approx(one_vs_rest_entropy(0.5, 3), abs=1e-15)  # reads 1.1e-16


def test_roof_maximally_mixed_is_flat():
    # for a diagonal state the identity start is the spectral decomposition,
    # of output entropy exactly 0, and no restart ends above its start
    assert roof_upper_bound(symmetric_state(0.0), m=4, restarts=5, seed=0).value == 0.0
    for i in range(20):
        p = linesearch.stream_rng(37, i).uniform(0.05, 1.0, size=3)
        p /= p.sum()
        assert roof_upper_bound(np.diag(p).astype(complex), restarts=4, seed=37).value == 0.0


def test_roof_value_matches_its_own_decomposition():
    res = roof_upper_bound(symmetric_state(0.6), m=4, restarts=10, seed=3)
    dec = res.decomposition
    assert res.value == pytest.approx(dec.average_output_entropy(), abs=1e-12)
    assert np.max(np.abs(dec.mixture() - symmetric_state(0.6))) < 1e-9


@pytest.mark.parametrize("z", [-0.41, 0.3, 0.4, 0.75, pytest.param(None, id="complex")])
def test_roof_isometry_reproduces_decomposition(z):
    # symmetric states are searched with real moves, and their degenerate
    # eigenspace must be factored the same way on the way back; None is a
    # complex state
    if z is None:
        omega = _random_density(Generator(Philox(key=np.array([51, 1], dtype=np.uint64))))
    else:
        omega = symmetric_state(z)
    res = roof_upper_bound(omega, m=6, restarts=10, seed=5)
    assert np.iscomplexobj(res.isometry) == (z is None)
    dec = _decomposition(omega, res.isometry)
    assert np.array_equal(dec.weights, res.decomposition.weights)
    assert np.array_equal(dec.states, res.decomposition.states)


def _reference_members(vectors):
    # the earlier member list: each kept row divided by math.sqrt of its
    # weight, and the average of its per-member entropies
    weights = np.einsum("ij,ij->i", vectors, vectors.conj()).real
    keep = weights > 0.0
    states = [vectors[j] / math.sqrt(weights[j]) for j in np.nonzero(keep)[0]]
    value = 0.0
    for p, s in zip(weights[keep], states):
        value += p * _entropy_sum(np.abs(np.asarray(s)) ** 2)
    return weights[keep], states, value


@pytest.mark.parametrize(
    "omega, m, restarts, dtype",
    [
        (symmetric_state(-0.44), 6, 4, np.float64),
        (symmetric_state(0.3), 4, 4, np.float64),
        # rank 1 from the identity start alone: two rows of zero weight are dropped
        (symmetric_state(1.0), 3, 1, np.float64),
        (_random_density(Generator(Philox(key=np.array([52, 0], dtype=np.uint64)))), 9, 4, np.complex128),
        (rank2_state(0.6, 0.3 + 0.1j, 0.6, 0.8j), 4, 4, np.complex128),
    ],
    ids=["real-lower-chord", "real-interior", "real-rank1", "complex", "complex-rank2"],
)
def test_roof_result_is_bit_identical_to_member_list_reference(omega, m, restarts, dtype, monkeypatch):
    seen = []
    build = roof._decomposition_from_vectors
    monkeypatch.setattr(roof, "_decomposition_from_vectors", lambda v: seen.append(v) or build(v))
    res = roof_upper_bound(omega, m=m, restarts=restarts, seed=11, max_sweeps=60)
    (vectors,) = seen
    assert res.isometry.dtype == dtype
    assert (res.isometry.conj() @ roof._eigen_factor(omega).T).tobytes() == vectors.tobytes()
    weights, states, value = _reference_members(vectors)
    dec = res.decomposition
    assert dec.weights.dtype == np.float64 and dec.weights.tobytes() == weights.tobytes()
    assert dec.states.dtype == dtype and len(dec.states) == len(states)
    for got, want in zip(dec.states, states):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert res.value == value


@pytest.mark.parametrize("z", [-0.41, 0.3, 0.75])
def test_near_real_state_round_trips(z):
    # an imaginary part within REAL_TOL makes a state real for the choice of
    # moves, the search and the factoring on the way back alike
    omega = symmetric_state(z).astype(complex)
    omega[0, 1] += 1e-13j
    omega[1, 0] -= 1e-13j
    res = roof_upper_bound(omega, m=6, restarts=10, seed=7)
    assert not np.iscomplexobj(res.isometry)
    dec = _decomposition(omega, res.isometry)
    assert dec.average_output_entropy() == pytest.approx(res.value, abs=1e-12)


@pytest.mark.parametrize("z", [0.75, 0.87])
def test_roof_keeps_light_members(z):
    # members far below 1e-12 in weight still carry part of the mixture, and
    # without them the value can read below the roof it bounds
    omega = symmetric_state(z)
    res = roof_upper_bound(omega.real, m=6, restarts=200, seed=7)
    assert np.max(np.abs(res.decomposition.mixture() - omega)) < 1e-14
    assert res.value >= entanglement_entropy(z) - 1e-14


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
    # an m that is not an integer is refused by name
    for m in (3.0, np.float64(3.0), "3"):
        with pytest.raises(TypeError, match="^m must be an integer"):
            roof_upper_bound(omega, m=m, restarts=3, seed=0)


@pytest.mark.parametrize("search", [roof_upper_bound])
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


@pytest.mark.parametrize("search", [roof_upper_bound])
def test_polish_budget_defaults_to_the_engines(search):
    # one budget for every polish the library runs at its defaults: the
    # restarts, insertions, pricing and face search
    assert inspect.signature(search).parameters["max_sweeps"].default is linesearch.POLISH_ITERS


@pytest.mark.parametrize("search", [roof_upper_bound])
def test_restarts_too_many_to_hold_are_refused_before_any_draw(search, monkeypatch):
    # the starts are allocated in one piece, so numpy refuses the count
    # before stream 1 is read
    draws = []

    def counted(seed, k):  # a draw would fail here, rather than run until memory runs out
        draws.append(k)
        raise AssertionError(f"stream {k} drawn")

    monkeypatch.setattr(roof, "stream_rng", counted)
    with pytest.raises(ValueError, match="too big"):
        search(symmetric_state(0.3), m=3, restarts=10**18)
    assert draws == []


def test_benchmark_entry_point_is_the_roof_search():
    # perfbench's roof_curve calls roof.real_roof_upper_bound: it is the one
    # search under a second name, so a traced run wraps one function once,
    # and it is not part of the package's public names
    assert roof.real_roof_upper_bound is roof.roof_upper_bound
    assert "real_roof_upper_bound" not in diagmap.__all__
    with pytest.raises(AttributeError):
        diagmap.real_roof_upper_bound


def test_real_roof_matches_curve_on_sample():
    for z in (-0.5, 0.0, 0.35, 0.9):
        res = roof_upper_bound(symmetric_state(z).real, m=6, restarts=60, seed=4)
        assert res.value == pytest.approx(entanglement_entropy(z), abs=1e-10)
        assert res.value >= entanglement_entropy(z) - 1e-9


def test_real_roof_two_orbit_region():
    zstar = lower_tangent_z()
    z = 0.5 * (zstar - 0.5)
    res = roof_upper_bound(symmetric_state(z).real, m=6, restarts=150, seed=11)
    assert res.value == pytest.approx(entanglement_entropy(z), abs=1e-10)


def test_real_roof_next_to_tangency_point():
    # just above z* the polish stalls in a basin that lacks one member, 1.58e-6
    # or 5.25e-6 above E; pricing finds the missing state and inserts it
    z = -0.41
    omega = symmetric_state(z).real
    insertions = []
    for seed in range(1001, 1011):
        res = roof_upper_bound(omega, m=6, restarts=32, max_sweeps=150, seed=seed)
        assert abs(res.value - entanglement_entropy(z)) <= 1e-12, seed
        assert not res.capped
        insertions.append(res.insertions)
    assert max(insertions) >= 1


def test_real_roof_matches_rank2_closed_form():
    g = Generator(Philox(key=np.array([53, 0], dtype=np.uint64)))
    for _ in range(3):
        z = float(g.uniform(0.2, 0.8))
        phi = float(g.uniform(0.0, 2.0 * math.pi))
        a, b = math.cos(phi), math.sin(phi)
        x = float(g.uniform(-0.9, 0.9)) * math.sqrt(z * (1.0 - z))
        omega = rank2_state(z, x, a, b).real
        res = roof_upper_bound(omega, m=4, restarts=60, seed=6)
        assert res.value == pytest.approx(rank2_entanglement(z, x, a, b), abs=1e-5)


def test_roof_upper_bounds_twirled_curve():
    g = Generator(Philox(key=np.array([54, 0], dtype=np.uint64)))
    for _ in range(10):
        omega = _random_density(g)
        bound = roof_upper_bound(omega, restarts=5, seed=1).value
        assert bound >= entanglement_entropy(twirl_s3(omega)) - 1e-6


@pytest.mark.parametrize("z", [-0.44, -0.41, 0.3, 0.9])
def test_roof_is_covariant_on_the_curve(z):
    # E is unchanged by a diagonal unitary and a permutation, so a complex
    # search of D P omega(z) P^T D^H lands on the curve as the real one does
    D = np.diag(np.exp(1j * np.array([0.0, 0.7, 1.9])))
    P = np.roll(np.eye(3), 1, axis=0)
    value = roof_upper_bound(D @ P @ symmetric_state(z) @ P.T @ D.conj().T).value
    expected = entanglement_entropy(z)
    assert abs(value - expected) <= 1e-13
    assert value >= expected - 3e-14


def test_roof_default_m_is_caratheodory_length_in_two_orbit_region():
    # below z* the curve needs two cyclic orbits, six states; the
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
    assert res.isometry.shape == (6 + res.insertions, 3)  # m is the starting length


def test_roof_default_m_for_complex_rank2_and_rank1():
    g = Generator(Philox(key=np.array([57, 0], dtype=np.uint64)))
    psi = g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    omega = 0.7 * _projector(psi[0]) + 0.3 * _projector(psi[1])
    res = roof_upper_bound(omega, restarts=3, seed=0)
    assert res.isometry.shape == (4, 2)  # rank^2 for a complex search
    assert np.max(np.abs(res.decomposition.mixture() - omega)) < 1e-9
    pure = _projector(psi[0])
    res = roof_upper_bound(pure, restarts=3, seed=0)
    assert res.isometry.shape == (1, 1)
    assert res.value == pytest.approx(diagonal_output_entropy(pure), abs=1e-12)


def _random_isometries(omega, m, restarts, complex_moves, key):
    """Random m x rank isometries W and the eigenfactor M of omega."""
    g = Generator(Philox(key=np.array([58, key], dtype=np.uint64)))
    M = roof._eigen_factor(omega)
    shape = (restarts, m, M.shape[1])
    raw = g.standard_normal(shape) + (1j * g.standard_normal(shape) if complex_moves else 0.0)
    return np.stack([np.linalg.qr(a)[0] for a in raw]), M


@pytest.mark.parametrize("complex_moves", [False, True])
def test_polish_batch_matches_restarts_one_at_a_time(complex_moves):
    if complex_moves:
        omega, m = _random_density(Generator(Philox(key=np.array([59, 0], dtype=np.uint64)))), 4
    else:
        omega, m = symmetric_state(-0.41).real, 6
    W, M = _random_isometries(omega, m, 5, complex_moves, int(complex_moves))
    funcs = roof._polish_functions(M)
    f = funcs(W)[0]
    Wb, fb, steps, capped = linesearch.stiefel_bfgs(W, funcs)
    assert 0 < steps.min() and steps.max() < linesearch.POLISH_ITERS and not capped.any()
    for i in range(len(f)):
        Ws, fs, its, _ = linesearch.stiefel_bfgs(W[i : i + 1], funcs)
        assert np.array_equal(Ws[0], Wb[i]) and fs[0] == fb[i] and its[0] == steps[i]
    # the polish never ends above its start, keeps W on the Stiefel manifold
    # and f in step with it
    assert np.all(fb <= f) and np.any(fb < f - 1e-9)
    gram = np.einsum("bji,bjl->bil", Wb.conj(), Wb)
    assert np.max(np.abs(gram - np.eye(W.shape[2]))) <= 1e-12
    assert np.array_equal(fb, funcs(Wb)[0])


@pytest.mark.parametrize("complex_moves", [False, True])
def test_gradient_matches_finite_differences(complex_moves):
    g = Generator(Philox(key=np.array([59, 1], dtype=np.uint64)))
    omega = _random_density(g) if complex_moves else symmetric_state(-0.41).real
    W, M = _random_isometries(omega, 4, 2, complex_moves, 2)
    funcs = roof._polish_functions(M)
    G = linesearch._project(W, funcs(W)[1])
    noise = g.standard_normal(W.shape) + (1j * g.standard_normal(W.shape) if complex_moves else 0.0)
    D = linesearch._project(W, noise)
    h = 1e-6
    plus, minus = linesearch._retract(W + h * D), linesearch._retract(W - h * D)
    slope = (funcs(plus)[0] - funcs(minus)[0]) / (2.0 * h)
    assert np.max(np.abs(slope - np.einsum("bi,bi->b", linesearch._flat(G), linesearch._flat(D)))) < 1e-7


def test_search_reports_how_it_ended():
    fast = roof_upper_bound(symmetric_state(0.3).real, m=6, restarts=32, max_sweeps=150, seed=1)
    assert fast.insertions == 0 and not fast.capped and 1 < fast.sweeps < 150
    slow = roof_upper_bound(symmetric_state(-0.41).real, m=6, restarts=32, max_sweeps=150, seed=1)
    assert slow.insertions >= 1 and not slow.capped
    assert slow.isometry.shape == (6 + slow.insertions, 3)
    cut = roof_upper_bound(symmetric_state(0.3).real, m=6, restarts=4, max_sweeps=1, seed=1)
    assert cut.capped and cut.sweeps == 1 and cut.insertions == 0


def test_polish_cap_is_reported():
    res = roof_upper_bound(symmetric_state(-0.41).real, m=6, restarts=32, max_sweeps=3, seed=1)
    assert res.sweeps == 3 and res.capped and res.insertions == 0
    assert res.value >= entanglement_entropy(-0.41) - 1e-12


def test_sweeps_count_the_best_restart():
    # the batch runs 29 iterations, until its slowest restart stops; the
    # restart that gives the value stops at 19
    omega = symmetric_state(0.3).real
    res = roof_upper_bound(omega, m=6, restarts=32, max_sweeps=150, seed=1)
    M = roof._eigen_factor(omega)
    _, f, iters, _ = linesearch.stiefel_bfgs(roof._starts(M, 6, 32, 1), roof._polish_functions(M), 150)
    assert (res.insertions, res.sweeps, iters[np.argmin(f)], iters.max()) == (0, 19, 19, 29)


def test_sweeps_add_each_insertion_polish(monkeypatch):
    engine, polishes = roof.stiefel_bfgs, []

    def recorded(W, funcs, *args):
        out = engine(W, funcs, *args)
        if W.shape[2] > 1:  # a polish; the pricing runs on single columns
            polishes.append(out)
        return out

    monkeypatch.setattr(roof, "stiefel_bfgs", recorded)
    res = roof_upper_bound(symmetric_state(-0.41).real, m=6, restarts=32, max_sweeps=150, seed=1)
    (_, f, iters, _), *inserted = polishes
    # a polish whose insertion is dropped counts too
    assert res.insertions >= 1 and len(inserted) >= res.insertions
    assert res.sweeps == iters[np.argmin(f)] + sum(its[0] for _, _, its, _ in inserted)


def test_capped_reports_the_best_restart():
    # the best restart converges in 36 iterations while another runs 155; a
    # flag for the whole batch said capped and the search stopped 5.25e-6
    # above E without pricing
    z = -0.41
    res = roof_upper_bound(symmetric_state(z).real, m=6, restarts=32, max_sweeps=150, seed=138)
    assert not res.capped
    assert abs(res.value - entanglement_entropy(z)) <= 1e-12


def _stalled_search():
    """The decomposition T, eigenfactor M and seed of the z = -0.41 search of
    seed 1207409298 polished from its 32 starts without pricing: it stalls
    1.58e-6 above E."""
    z, seed = -0.41, 1207409298
    M = roof._eigen_factor(symmetric_state(z).real)
    W, f, _, capped = linesearch.stiefel_bfgs(roof._starts(M, 6, 32, seed), roof._polish_functions(M), 150)
    best = int(np.argmin(f))
    assert not capped[best]
    assert 1.5e-6 < f[best] - entanglement_entropy(z) < 1.7e-6
    return W[best] @ M.T, M, seed


def _is_pair_state(psi):
    # a permutation of (1, 0, -1)/sqrt(2), up to sign
    return np.allclose(np.sort(np.abs(psi)), [0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], atol=1e-6) and abs(
        psi.sum()
    ) < 1e-6


def test_pricing_finds_the_missing_pair_state():
    T, M, _ = _stalled_search()
    B = M / np.linalg.norm(M, axis=0)
    h, c = roof._price(T, M)
    assert h <= -4e-4
    assert _is_pair_state(B @ c)


def test_pricing_needs_the_pair_states(monkeypatch):
    # the pair state sits on a coordinate face, where the output entropy has
    # a log cusp: the polish started from the members alone does not reach
    # it, started from the pair states it does
    T, M, _ = _stalled_search()
    assert roof._price(T, M)[0] <= -4e-4
    monkeypatch.setattr(roof, "_pair_states", lambda N: np.empty((0, N)))
    assert roof._price(T, M)[0] > -1e-7


@pytest.mark.parametrize(
    "N, z, bracket, zstar",
    [
        (4, -0.305, (-0.32, -0.29), -0.304246),
        (5, -0.245, (-0.249, -0.235), -0.242826),
        (5, -0.248, (-0.249, -0.235), -0.242826),
        (6, -0.1998, (-0.1999, -0.1990), -0.199452),
        # the face point, where E = log 2, and 1e-4 inside it: their polishes
        # run 347 and 675 iterations with the insertions, and a polish that
        # hits its cap is never priced
        (6, -0.2, (-0.1999, -0.1990), -0.199452),
        (6, -0.1999, (-0.1999, -0.1990), -0.199452),
    ],
)
def test_search_reaches_the_sn_lower_chord(N, z, bracket, zstar):
    # E on the lower chord from (-1/(N - 1), log 2), tangent to the one-vs-rest
    # entropy.  Its decomposition needs the pair states (e_i - e_j)/sqrt(2),
    # which the polish misses and the pricing finds from its pair-state starts
    z0 = -1.0 / (N - 1)
    t = tangent_from_point(partial(one_vs_rest_entropy, N=N), z0, LN2, bracket, df=partial(_one_vs_rest_slope, N=N))
    assert t == pytest.approx(zstar, abs=1e-6)
    expected = LN2 + (one_vs_rest_entropy(t, N) - LN2) * (z - z0) / (t - z0)
    omega = ((1.0 - z) * np.eye(N) + z * np.ones((N, N))) / N
    value = roof_upper_bound(omega).value
    assert abs(value - expected) <= 1e-12
    assert value >= expected - 3e-14
