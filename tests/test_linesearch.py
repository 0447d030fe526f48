import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap import linesearch, roof
from diagmap.face_minimum import zero_sum_basis


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
    roof._price(U @ M.T, M, g)
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
    assert np.max(np.abs(slope - linesearch._inner(linesearch._project(W, funcs(W)[1]), D))) < 1e-7
    if not priced:
        # the value is the output entropy of the unit state Bc
        psi = np.einsum("ij,bj->bi", B, C)
        sq = (psi * psi.conj()).real
        assert np.max(np.abs(funcs(W)[0] + (sq * np.log(sq)).sum(axis=1))) < 1e-14


def test_each_trial_point_is_evaluated_once(monkeypatch):
    # funcs runs once on the starts and once per Armijo try, first or retry,
    # on exactly the rows tried; a row that keeps its point keeps its
    # gradient, so no point is evaluated twice
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
    assert len(tries) > iterations.max()  # some rows retried from the halved step
    assert len(calls) == 1 + len(tries)
    assert [len(W) for W in calls] == [len(C), *tries]
    points = np.concatenate(calls)
    assert len({p.tobytes() for p in points}) == len(points)
    assert np.array_equal(f, funcs(W)[0])
