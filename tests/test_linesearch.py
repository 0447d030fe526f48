import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap import linesearch, roof
from diagmap.entropy import TINY
from diagmap.linesearch import brute_force_min_face, zero_sum_basis
from diagmap.roof import roof_upper_bound
from diagmap.states import symmetric_state


def _ky_fan_problem(g, complex_entries, rows):
    """A Hermitian A with eigenvalues -1, -0.8, 0.5, 0.9, 1.3, 2, random
    starts on V(6, 2), and funcs: Re tr(W^H A W) and its Euclidean gradient."""
    n, k = 6, 2
    raw = g.standard_normal((n, n)) + (1j * g.standard_normal((n, n)) if complex_entries else 0.0)
    Q, _ = np.linalg.qr(raw)
    evals = np.array([-1.0, -0.8, 0.5, 0.9, 1.3, 2.0])  # a gap of 1.3 after the second
    A = np.einsum("ij,j,lj->il", Q, evals, Q.conj())
    starts = g.standard_normal((rows, n, k)) + (1j * g.standard_normal((rows, n, k)) if complex_entries else 0.0)
    W = np.stack([np.linalg.qr(x)[0] for x in starts])

    def funcs(W):
        return np.einsum("bji,jl,bli->b", W.conj(), A, W).real, 2.0 * np.einsum("jl,bli->bji", A, W)

    return W, funcs, evals[:k].sum(), Q[:, :k]


@pytest.mark.parametrize("complex_entries", [False, True])
def test_stiefel_bfgs_reaches_the_ky_fan_minimum(complex_entries):
    # min Re tr(W^H A W) over V(n, k) is the sum of the k smallest
    # eigenvalues of A (Ky Fan); the objective has no other local minimum
    g = Generator(Philox(key=np.array([61, int(complex_entries)], dtype=np.uint64)))
    W, funcs, minimum, _ = _ky_fan_problem(g, complex_entries, 8)
    Wb, fb, iterations, capped = linesearch.stiefel_bfgs(W, funcs)
    assert not capped.any() and 0 < iterations.min() and iterations.max() < linesearch.POLISH_ITERS
    assert np.max(np.abs(fb - minimum)) < 1e-12
    assert np.array_equal(fb, funcs(Wb)[0])
    for i in range(len(W)):
        Ws, fs, its, capped = linesearch.stiefel_bfgs(W[i : i + 1], funcs)
        assert not capped[0] and its[0] == iterations[i]
        assert np.array_equal(Ws[0], Wb[i]) and fs[0] == fb[i]


def test_stiefel_bfgs_reports_the_cap_per_row():
    # a row started at the minimum stops at once; the others run to the cap
    g = Generator(Philox(key=np.array([61, 2], dtype=np.uint64)))
    W, funcs, minimum, optimum = _ky_fan_problem(g, False, 4)
    W[0] = optimum
    _, f, iterations, capped = linesearch.stiefel_bfgs(W, funcs, 3)
    assert iterations.tolist() == [0, 3, 3, 3]
    assert capped.tolist() == [False, True, True, True]
    assert abs(f[0] - minimum) < 1e-12


def test_a_row_stops_once_its_step_predicts_no_gain():
    # a flat objective with a fixed gradient, |g|^2 = 1e-14 at every start,
    # so every try fails and halves the step: a row stops once its step
    # predicts a gain of at most POLISH_TOL, after ceil(log2(1e-14 /
    # POLISH_TOL)) = 4 tries, not capped and at its start
    W = np.zeros((3, 3, 1))
    W[:, [0, 2], 0] = [[1.0, 0.0], [0.0, 1.0], [0.6, -0.8]]
    G = np.array([0.0, 1e-7, 0.0])[:, None]

    def funcs(W):
        return np.ones(len(W)), np.broadcast_to(G, W.shape).copy()

    g = linesearch._flat(linesearch._project(W, funcs(W)[1]))
    assert np.allclose(np.einsum("bi,bi->b", g, g), 1e-14, rtol=1e-12, atol=0.0)
    Wb, f, iterations, capped = linesearch.stiefel_bfgs(W, funcs)
    assert iterations.tolist() == [4, 4, 4] and not capped.any()
    assert np.array_equal(Wb, W) and np.all(f == 1.0)


def test_a_row_whose_objective_reads_nan_stops_at_once():
    # a NaN value and gradient predict a NaN gain, which stops the row at
    # iteration 0; the NaN is keyed to the point (first coordinate below 0),
    # not to the row's place in the batch, and the other row ends as alone
    base = linesearch.sphere_functions(zero_sum_basis(7).T)

    def funcs(W):
        f, G = base(W)
        bad = W[:, 0, 0] < 0.0
        return np.where(bad, np.nan, f), np.where(bad[:, None, None], np.nan, G)

    g = Generator(Philox(key=np.array([67, 0], dtype=np.uint64)))
    C = np.abs(g.standard_normal((2, 6)))
    C[0, 0] = -C[0, 0]
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    W, f, iterations, capped = linesearch.stiefel_bfgs(C[:, :, None], funcs)
    assert iterations[0] == 0 and not capped[0]
    assert np.array_equal(W[0], C[0, :, None]) and np.isnan(f[0])
    Ws, fs, its, caps = linesearch.stiefel_bfgs(C[1:, :, None], funcs)
    assert 0 < its[0] == iterations[1] and not caps[0] and not capped[1]
    assert W[1].tobytes() == Ws[0].tobytes() and f[1].tobytes() == fs[0].tobytes()


def _sphere_problem(basis, priced, monkeypatch):
    """Unit starts, the basis B and funcs on V(r, 1): the face objective
    sphere_functions(B) or, priced, the h(c) = S(D(Bc)) - c^H X c that
    roof._price hands the engine, caught on its way there."""
    g = Generator(Philox(key=np.array([62, int(priced)], dtype=np.uint64)))
    if basis == "real":
        B = zero_sum_basis(7).T
        lam = g.uniform(0.5, 1.5, B.shape[1])
        M = B * np.sqrt(lam / lam.sum())
    else:
        a = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        M = roof._eigen_factor(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        B = M / np.linalg.norm(M, axis=0)
    shape = (6, B.shape[1])
    C = g.standard_normal(shape) + (1j * g.standard_normal(shape) if basis == "complex" else 0.0)
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    if not priced:
        return C, B, linesearch.sphere_functions(B)
    caught = []

    def engine(W, funcs, *args):
        caught.append(funcs)
        return linesearch.stiefel_bfgs(W, funcs, *args)

    monkeypatch.setattr(roof, "stiefel_bfgs", engine)
    raw = g.standard_normal((8, M.shape[1]))
    U = np.linalg.qr(raw + (1j * g.standard_normal(raw.shape) if basis == "complex" else 0.0))[0]
    roof._price(U @ M.T, M)
    return C, B, caught[0]


@pytest.mark.parametrize("priced", [False, True])
@pytest.mark.parametrize("basis", ["real", "complex"])
def test_sphere_gradient_matches_finite_differences(basis, priced, monkeypatch):
    C, B, funcs = _sphere_problem(basis, priced, monkeypatch)
    W = C[:, :, None]
    g = Generator(Philox(key=np.array([63, 0], dtype=np.uint64)))
    noise = g.standard_normal(W.shape) + (1j * g.standard_normal(W.shape) if basis == "complex" else 0.0)
    D = linesearch._project(W, noise)
    h = 1e-6
    plus, minus = linesearch._retract(W + h * D), linesearch._retract(W - h * D)
    slope = (funcs(plus)[0] - funcs(minus)[0]) / (2.0 * h)
    g = linesearch._project(W, funcs(W)[1])
    assert np.max(np.abs(slope - np.einsum("bi,bi->b", linesearch._flat(g), linesearch._flat(D)))) < 1e-7
    if not priced:
        # the value is the output entropy of the unit state Bc
        psi = np.einsum("ij,bj->bi", B, C)
        sq = (psi * psi.conj()).real
        assert np.max(np.abs(funcs(W)[0] + (sq * np.log(sq)).sum(axis=1))) < 1e-14


def test_each_trial_point_is_evaluated_once(monkeypatch):
    # funcs runs once on the starts and once per iteration's Armijo try, on
    # exactly the rows tried; a row that keeps its point keeps its gradient,
    # so no point is evaluated twice
    g = Generator(Philox(key=np.array([64, 0], dtype=np.uint64)))
    C = g.standard_normal((40, 11))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    funcs = linesearch.sphere_functions(zero_sum_basis(12).T)
    calls, tries = [], []

    def counted(W):
        calls.append(W.copy())
        return funcs(W)

    armijo = linesearch._armijo

    def counted_armijo(W, *args):
        tries.append(len(W))
        return armijo(W, *args)

    monkeypatch.setattr(linesearch, "_armijo", counted_armijo)
    W, f, iterations, _ = linesearch.stiefel_bfgs(C[:, :, None], counted, 30)
    assert len(tries) == iterations.max()  # one try per iteration
    assert len(calls) == 1 + len(tries)
    assert [len(W) for W in calls] == [len(C), *tries]
    points = np.concatenate(calls)
    assert len({p.tobytes() for p in points}) == len(points)
    assert np.array_equal(f, funcs(W)[0])


def test_the_last_iteration_under_the_cap_ends_after_its_try(monkeypatch):
    # nothing after the loop reads the projected gradient, the curvature
    # pair or H, so the iteration the cap stops makes its Armijo try and no
    # projection after it
    g = Generator(Philox(key=np.array([66, 0], dtype=np.uint64)))
    C = g.standard_normal((8, 11))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    funcs = linesearch.sphere_functions(zero_sum_basis(12).T)
    events = []
    project, armijo = linesearch._project, linesearch._armijo

    def counted_project(W, G):
        events.append("project")
        return project(W, G)

    def counted_armijo(W, *args):
        events.append("armijo")
        return armijo(W, *args)

    monkeypatch.setattr(linesearch, "_project", counted_project)
    monkeypatch.setattr(linesearch, "_armijo", counted_armijo)
    _, _, iterations, capped = linesearch.stiefel_bfgs(C[:, :, None], funcs, 3)
    assert capped.all() and np.all(iterations == 3)
    tries = [i for i, event in enumerate(events) if event == "armijo"]
    assert len(tries) == 3 and tries[-1] == len(events) - 1
    # every earlier try is followed by the projection of its curvature pair
    assert all(events[i + 1] == "project" for i in tries[:-1])


def _reference_armijo(W, f, G, funcs, d, slope, step):
    Wc = linesearch._retract(W + step[:, None, None] * d)
    fc, Gc = funcs(Wc)
    ok = (fc < f) & (fc <= f + linesearch.ARMIJO * step * slope)
    if ok.all():
        return Wc, fc, Gc, step, ok
    at = ok[:, None, None]
    return np.where(at, Wc, W), np.where(ok, fc, f), np.where(at, Gc, G), np.where(ok, step, 0.5 * step), ok


def _reference_bfgs(W, funcs, max_iters=linesearch.POLISH_ITERS):
    """stiefel_bfgs as it was before it carried the flat projected gradient,
    flattening g twice per iteration and testing its masks with any/all, and
    before it made one Armijo try per iteration: a row whose first try fails
    tries the halved step in the same iteration, where that step still
    predicts a gain above POLISH_TOL."""
    _project, _flat, POLISH_TOL = linesearch._project, linesearch._flat, linesearch.POLISH_TOL

    def _inner(A, B):
        return np.einsum("bi,bi->b", _flat(A), _flat(B))

    W, (f, G) = W.copy(), funcs(W)
    idx, w, fw, g = np.arange(len(f)), W, f, _project(W, G)
    n = _flat(g).shape[1]
    H, gamma, step, capped = np.zeros((len(f), n, n)), np.ones(len(f)), np.ones(len(f)), np.zeros(len(f), dtype=bool)
    iters = np.full(len(f), max_iters)
    for it in range(max_iters):
        d = _project(w, -(H @ _flat(g)[:, :, None])[:, :, 0].view(w.dtype).reshape(w.shape))
        slope = _inner(g, d)
        fresh = ~(slope < 0.0)
        if fresh.any():
            H[fresh], d[fresh] = 0.0, -gamma[fresh, None, None] * g[fresh]
            slope[fresh] = _inner(g[fresh], d[fresh])
        stop = ~(step * slope < -POLISH_TOL)
        if stop.any():
            W[idx[stop]], f[idx[stop]], iters[idx[stop]] = w[stop], fw[stop], it
            if stop.all():
                return W, f, iters, capped
            run = ~stop
            idx, w, fw, G, g, H, gamma = idx[run], w[run], fw[run], G[run], g[run], H[run], gamma[run]
            step, d, slope, fresh = step[run], d[run], slope[run], fresh[run]
        w, fw, G, step, took = _reference_armijo(w, fw, G, funcs, d, slope, step)
        i = np.nonzero(~took & (step * slope < -POLISH_TOL))[0]
        if i.size:
            w[i], fw[i], G[i], step[i], took[i] = _reference_armijo(w[i], fw[i], G[i], funcs, d[i], slope[i], step[i])
        P = _project(w, np.array([G, step[:, None, None] * d, g]))
        gn, s, gp = P.reshape(3, len(w), -1).view(float)
        g, y = P[0], gn - gp
        step = np.where(took, 1.0, step)
        sy, yy = np.einsum("bi,bi->b", s, y), np.einsum("bi,bi->b", y, y)
        keep = took & (sy > TINY) & (yy > TINY)
        rho = np.divide(1.0, sy, out=np.zeros(len(sy)), where=keep)
        np.divide(sy, yy, out=gamma, where=keep)
        if (keep & fresh).any():
            H[keep & fresh] = gamma[keep & fresh, None, None] * np.eye(n)
        u = (H @ y[:, :, None])[:, :, 0]
        t = (0.5 * rho * (rho * np.einsum("bi,bi->b", y, u) + 1.0))[:, None] * s - rho[:, None] * u
        H += np.array([s, t]).transpose(1, 2, 0) @ np.array([t, s]).transpose(1, 0, 2)
    W[idx], f[idx] = w, fw
    capped[idx] = step * slope < -POLISH_TOL
    return W, f, iters, capped


def _random_qutrits():
    """20 seeded random full-rank complex qutrit states."""
    g = Generator(Philox(key=np.array([65, 0], dtype=np.uint64)))
    states = []
    for _ in range(20):
        a = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
        states.append(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    return states


def _recorded(funcs, points):
    """funcs, recording each point it runs on."""

    def run(W):
        points.extend(w.tobytes() for w in W)
        return funcs(W)

    return run


def test_engine_is_bit_identical_to_the_reference_loop(monkeypatch):
    # every engine call of the roof and face searches below, each run by
    # stiefel_bfgs and by the two-try reference loop: a failed try changes
    # only the step, so the reference's retry is the next iteration's try.
    # Every row that neither loop capped ends at the same W and f byte for
    # byte, after at least the reference's iterations; where neither capped
    # a row, both evaluate the same points
    engine, calls, uncapped = linesearch.stiefel_bfgs, [], []

    def both(W, funcs, *args):
        points, ref_points = [], []
        got = engine(W, _recorded(funcs, points), *args)
        want = _reference_bfgs(W, _recorded(funcs, ref_points), *args)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype
        free = ~(got[3] | want[3])
        assert got[0][free].tobytes() == want[0][free].tobytes()
        assert got[1][free].tobytes() == want[1][free].tobytes()
        assert np.all(got[2] >= want[2])
        if free.all():
            assert sorted(points) == sorted(ref_points)
        calls.append((W.shape, W.dtype))
        uncapped.append(free.all())
        return got

    monkeypatch.setattr(roof, "stiefel_bfgs", both)
    monkeypatch.setattr(linesearch, "stiefel_bfgs", both)
    # the real polish at the four points of the roof_curve benchmark; -0.41
    # prices and inserts a member
    for seed, z in enumerate((-0.44, -0.41, 0.3, 0.92), 1):
        roof_upper_bound(symmetric_state(z).real, m=6, restarts=32, seed=seed, max_sweeps=150)
    polishes = [shape for shape, _ in calls if shape[0] == 32]
    assert len(polishes) == 4
    assert any(shape[-1] == 1 for shape, _ in calls)  # a pricing batch
    assert any(shape == (1, 7, 3) for shape, _ in calls)  # an insertion polish
    # short complex searches
    for k, omega in enumerate(_random_qutrits()):
        roof_upper_bound(omega, m=3, restarts=2, seed=k, max_sweeps=10)
    assert calls[-1][1] == np.complex128
    # the face search on both sides of the bifurcation at N = 6
    for N in (6, 12):
        brute_force_min_face(N, restarts=50 * N, seed=1)
    assert calls[-1][0] == (600, 11, 1)
    # only the short complex searches, at a cap of 10, leave a row capped
    assert uncapped.count(False) == 20


def test_no_row_ends_above_its_start(monkeypatch):
    # every engine call of the searches below (polish, pricing, insertion
    # polish and face search) ends each row at or below its start, exactly;
    # so a search ends at or below the value of its identity start
    engine, calls = linesearch.stiefel_bfgs, []

    def checked(W, funcs, *args):
        start = funcs(W)[0]
        out = engine(W, funcs, *args)
        assert np.all(out[1] <= start)
        calls.append(W.shape)
        return out

    monkeypatch.setattr(roof, "stiefel_bfgs", checked)
    monkeypatch.setattr(linesearch, "stiefel_bfgs", checked)
    # the real polish at the four points of the roof_curve benchmark, and
    # short complex searches, each at three caps
    points = tuple(enumerate((-0.44, -0.41, 0.3, 0.92), 1))
    searches = [(symmetric_state(z).real, 6, 32, seed, cap) for cap in (1, 3, 150) for seed, z in points]
    searches += [(omega, 3, 2, k, cap) for cap in (1, 3, 10) for k, omega in enumerate(_random_qutrits())]
    for omega, m, restarts, seed, cap in searches:
        res = roof_upper_bound(omega, m=m, restarts=restarts, seed=seed, max_sweeps=cap)
        # the identity start is the spectral decomposition, padded with zero rows
        spectral = roof._decomposition_from_vectors(roof._eigen_factor(omega).T)
        assert res.value <= spectral.average_output_entropy() + 1e-12
    assert calls.count((32, 6, 3)) == 12 and calls.count((2, 3, 3)) == 60
    assert any(shape[-1] == 1 for shape in calls)  # a pricing batch
    assert (1, 7, 3) in calls  # an insertion polish
    # the face search on both sides of the bifurcation at N = 6
    for N in (6, 12):
        brute_force_min_face(N, restarts=50 * N, seed=1)
    assert calls[-1] == (600, 11, 1)
