import math
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap import linesearch, roof
from diagmap.entropy import eta_array
from diagmap.linesearch import rotation_line_search


def _eta_sum(K0, K1, K2, w, t):
    t2 = 2.0 * np.asarray(t)[..., None]
    return np.einsum("...c,c->...", eta_array(K0 + K1 * np.cos(t2) + K2 * np.sin(t2)), w)


@pytest.mark.parametrize("shape", [(30, 40), (2000,), (20,)])
def test_rotation_line_search_matches_closed_form(shape):
    # with u = R cos(2t - phi), F = eta(K0 + u) + eta(K0 - u) has period
    # pi/2 in t and is concave and even in u, so its minimum over t is
    # eta(K0 + R) + eta(K0 - R), at cos(2t - phi) = +-1
    g = Generator(Philox(key=np.array([58, 10 * len(shape) + shape[0]], dtype=np.uint64)))
    R = g.uniform(0.0, 0.5, shape)
    K0 = R + g.uniform(0.05, 0.5, shape)
    phi = g.uniform(-math.pi, math.pi, shape)
    K1, K2 = R * np.cos(phi), R * np.sin(phi)
    w = np.ones(2)
    coefficients = (np.stack([K0, K0], -1), np.stack([K1, -K1], -1), np.stack([K2, -K2], -1))
    t, values, current = rotation_line_search(*coefficients, w)
    assert t.shape == values.shape == current.shape == shape
    closed = eta_array(K0 + R) + eta_array(K0 - R)
    assert np.max(np.abs(values - closed)) < 1e-12
    # where R is not small the minimum is sharp enough to pin the angle
    sharp = R > 0.05
    assert sharp.mean() > 0.5
    assert np.max(np.abs(np.cos(4.0 * t - 2.0 * phi) - 1.0)[sharp]) < 1e-12
    assert np.array_equal(current, _eta_sum(*coefficients, w, 0.0))


@pytest.mark.parametrize("complex_rows, phase", [(False, False), (True, False), (True, True)])
def test_rotation_line_search_ends_in_a_local_minimum(complex_rows, phase):
    g = Generator(Philox(key=np.array([59, 2 * complex_rows + phase], dtype=np.uint64)))
    shape = (400, 3)
    X = g.standard_normal(shape) + (1j * g.standard_normal(shape) if complex_rows else 0.0)
    Y = g.standard_normal(shape) + (1j * g.standard_normal(shape) if complex_rows else 0.0)
    X *= g.uniform(0.1, 0.8, (400, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
    Y *= g.uniform(0.1, 0.8, (400, 1)) / np.linalg.norm(Y, axis=1, keepdims=True)
    K0, K1, K2, w = roof._pair_coefficients(X, Y, phase)
    t, values, current = rotation_line_search(K0, K1, K2, w)
    assert np.array_equal(values, _eta_sum(K0, K1, K2, w, t))
    assert np.array_equal(current, _eta_sum(K0, K1, K2, w, 0.0))
    assert np.all(values <= current)
    for dt in (1e-4, -1e-4, 1e-6, -1e-6):
        assert np.all(values <= _eta_sum(K0, K1, K2, w, t + dt))


def test_rotation_line_search_stops_on_degenerate_rows(monkeypatch):
    # with one row of a pair zero, every K0 equals hypot(K1, K2) and the
    # pair's terms do not depend on t; with K1 = K2 = 0 nothing does
    g = Generator(Philox(key=np.array([60, 0], dtype=np.uint64)))
    X = g.standard_normal((50, 4)) + 1j * g.standard_normal((50, 4))
    X *= 0.7 / np.linalg.norm(X, axis=1, keepdims=True)
    K0, K1, K2, w = roof._pair_coefficients(X, np.zeros_like(X), True)
    assert np.max(np.abs(K0 - np.hypot(K1, K2))) < 1e-15
    flat = (g.uniform(0.0, 0.5, (50, 4)), np.zeros((50, 4)), np.zeros((50, 4)))
    evaluations = []
    taylor = linesearch._taylor

    def counted(*args):
        evaluations[-1] += 1
        return taylor(*args)

    monkeypatch.setattr(linesearch, "_taylor", counted)
    for coefficients, weights in (((K0, K1, K2), w), (flat, np.ones(4))):
        evaluations.append(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, values, current = rotation_line_search(*coefficients, weights)
        assert evaluations[-1] <= linesearch.NEWTON_STEPS  # stopped before the cap
        assert np.all(np.isfinite(t))
        assert np.max(np.abs(values - current)) < 1e-14
    assert evaluations[1] == 1


@pytest.mark.parametrize("complex_entries", [False, True])
def test_stiefel_bfgs_reaches_the_ky_fan_minimum(complex_entries):
    # min Re tr(W^H A W) over V(n, k) is the sum of the k smallest
    # eigenvalues of A (Ky Fan); the objective has no other local minimum
    g = Generator(Philox(key=np.array([61, int(complex_entries)], dtype=np.uint64)))
    n, k, rows = 6, 2, 8
    raw = g.standard_normal((n, n)) + (1j * g.standard_normal((n, n)) if complex_entries else 0.0)
    Q, _ = np.linalg.qr(raw)
    evals = np.array([-1.0, -0.8, 0.5, 0.9, 1.3, 2.0])  # a gap of 1.3 after the second
    A = np.einsum("ij,j,lj->il", Q, evals, Q.conj())
    starts = g.standard_normal((rows, n, k)) + (1j * g.standard_normal((rows, n, k)) if complex_entries else 0.0)
    W = np.stack([np.linalg.qr(x)[0] for x in starts])

    def value(W):
        return np.einsum("bji,jl,bli->b", W.conj(), A, W).real

    def egrad(W):
        return 2.0 * np.einsum("jl,bli->bji", A, W)

    Wb, fb, iterations, capped = linesearch.stiefel_bfgs(W, value, egrad)
    assert not capped and iterations < linesearch.POLISH_ITERS
    assert np.max(np.abs(fb - evals[:k].sum())) < 1e-12
    assert np.array_equal(fb, value(Wb))
    for i in range(rows):
        Ws, fs, _, capped = linesearch.stiefel_bfgs(W[i : i + 1], value, egrad)
        assert not capped
        assert np.array_equal(Ws[0], Wb[i]) and fs[0] == fb[i]
