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


@pytest.mark.parametrize("shape", [(30, 40, 1), (2000, 1), (20, 1)])
def test_rotation_line_search_matches_closed_form(shape):
    # s = K0 + R cos(2t - phi) sweeps [K0 - R, K0 + R] and eta is concave,
    # so the minimum over t of eta(s) sits at an end: 2t = phi + pi or phi
    g = Generator(Philox(key=np.array([58, 10 * len(shape) + shape[0]], dtype=np.uint64)))
    R = g.uniform(0.0, 0.5, shape)
    K0 = R + g.uniform(0.05, 0.5, shape)
    phi = g.uniform(-math.pi, math.pi, shape)
    K1, K2 = R * np.cos(phi), R * np.sin(phi)
    w = np.ones(1)
    t, values, current = rotation_line_search(K0, K1, K2, w, math.pi)
    assert t.shape == values.shape == current.shape == shape[:-1]
    low, high = eta_array(K0 - R)[..., 0], eta_array(K0 + R)[..., 0]
    # the best of the 24 scan points lies within pi/48 of the deeper end's
    # angle, where eta is at most |eta'| R (1 - cos(pi/24)) <= 0.0086 above
    # its minimum (K0 - R >= 0.05, R <= 0.5); so where the ends differ by
    # more, the scan cannot pick the other end's well
    clear = np.abs(low - high) > 1e-2
    assert clear.mean() > 0.5
    assert np.max(np.abs(values - np.minimum(low, high))[clear]) < 1e-12
    target = np.where(low < high, phi[..., 0] + math.pi, phi[..., 0])
    assert np.max(np.abs(np.cos(2.0 * t - target) - 1.0)[clear]) < 1e-12
    assert np.array_equal(current, _eta_sum(K0, K1, K2, w, 0.0))


@pytest.mark.parametrize("complex_rows, phase", [(False, False), (True, False), (True, True)])
def test_rotation_line_search_ends_in_a_local_minimum(complex_rows, phase):
    g = Generator(Philox(key=np.array([59, 2 * complex_rows + phase], dtype=np.uint64)))
    shape = (400, 3)
    X = g.standard_normal(shape) + (1j * g.standard_normal(shape) if complex_rows else 0.0)
    Y = g.standard_normal(shape) + (1j * g.standard_normal(shape) if complex_rows else 0.0)
    X *= g.uniform(0.1, 0.8, (400, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
    Y *= g.uniform(0.1, 0.8, (400, 1)) / np.linalg.norm(Y, axis=1, keepdims=True)
    K0, K1, K2, w = roof._pair_coefficients(X, Y, phase)
    t, values, current = rotation_line_search(K0, K1, K2, w, 0.5 * math.pi)
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
    for coefficients, weights, period in (((K0, K1, K2), w, 0.5 * math.pi), (flat, np.ones(4), math.pi)):
        evaluations.append(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, values, current = rotation_line_search(*coefficients, weights, period)
        assert evaluations[-1] <= linesearch.NEWTON_STEPS  # stopped before the cap
        assert np.all(np.isfinite(t))
        assert np.max(np.abs(values - current)) < 1e-14
    assert evaluations[1] == 1
