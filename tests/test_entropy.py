import math
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.entropy import (
    check_hermitian,
    clamp_probabilities,
    eta,
    eta_array,
    hermitian_eigenvalues,
    shannon_entropy,
)


def test_eta_endpoints():
    assert eta(0.0) == 0.0
    assert eta(1.0) == 0.0


def test_eta_half():
    # direct evaluation: -0.5 * ln(0.5) = 0.5 * ln 2
    assert eta(0.5) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)


def test_eta_clamps_tiny_negatives():
    assert eta(-1e-13) == 0.0
    assert eta(1.0 + 1e-13) == 0.0


def test_eta_domain_errors():
    with pytest.raises(ValueError):
        eta(-1e-11)
    with pytest.raises(ValueError):
        eta(1.1)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            eta(x)


def test_eta_concavity():
    g = Generator(Philox(key=np.array([3, 0], dtype=np.uint64)))
    for _ in range(500):
        x, y, t = g.uniform(0.0, 1.0, size=3)
        lhs = eta(t * x + (1.0 - t) * y)
        rhs = t * eta(x) + (1.0 - t) * eta(y)
        assert lhs >= rhs - 1e-12


def test_eta_array_kernel():
    g = Generator(Philox(key=np.array([7, 0], dtype=np.uint64)))
    x = np.concatenate([g.uniform(0.0, 1.0, 500), 10.0 ** g.uniform(-300.0, 0.0, 500), [np.nextafter(1e-300, 1.0), 1.0]])
    x = x.reshape(2, 3, -1)
    assert np.array_equal(eta_array(x), -x * np.log(x))  # bit for bit
    tiny = np.array([-1e-12, -1e-300, -5e-324, -0.0, 0.0, 5e-324, 1e-310, 2.2e-308, 1e-300])
    assert np.all(eta_array(tiny) == 0.0)
    assert np.isnan(eta_array(np.array([0.5, np.nan]))[1])


def test_shannon_entropy_values():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert shannon_entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(math.log(3.0), abs=1e-12)
    assert shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)


def test_shannon_entropy_accepts_what_clamp_probabilities_accepts():
    # a total mass within SUM_TOL of 1 passes clamp_probabilities; an entry
    # above 1 once reached eta unclipped and raised
    assert shannon_entropy([1.0 + 5e-11]) == 0.0
    assert shannon_entropy([0.5 + 5e-11, 0.5]) == pytest.approx(math.log(2.0), abs=1e-10)


def test_shannon_entropy_bounds_and_permutation_invariance():
    g = Generator(Philox(key=np.array([4, 0], dtype=np.uint64)))
    for _ in range(100):
        p = g.uniform(0.0, 1.0, size=5)
        p /= p.sum()
        s = shannon_entropy(p)
        assert 0.0 <= s <= math.log(p.size) + 1e-12
        assert shannon_entropy(g.permutation(p)) == s


def test_shannon_entropy_rejects_bad_vectors():
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.4])
    with pytest.raises(ValueError):
        shannon_entropy([1.1, -0.1])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            shannon_entropy([bad, 1.0])


def test_clamp_probabilities():
    p = clamp_probabilities([1.0, -1e-13, 1e-13])
    assert p[1] == 0.0
    with pytest.raises(ValueError):
        clamp_probabilities([1.0, -1e-11])
    for bad in ([math.nan, 1.0], [1.0, math.inf], [1.0, -math.inf]):
        with pytest.raises(ValueError):
            clamp_probabilities(bad)


def test_eigenvalues_scalar_matrix():
    evals = hermitian_eigenvalues(np.eye(3) / 3.0)
    assert np.allclose(evals, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)


def test_eigenvalues_diagonal():
    evals = hermitian_eigenvalues(np.diag([0.0, 0.0, 1.0]))
    assert np.allclose(evals, [0.0, 0.0, 1.0], atol=1e-14)


def test_eigenvalues_symmetric_family_endpoint():
    # 3x3 with diagonal 1/3 and off-diagonal -1/6: (1, 1, 1) is an
    # eigenvector with value 0 and any zero-sum vector has value 1/2, so
    # the spectrum is (0, 1/2, 1/2).
    m = np.full((3, 3), -1 / 6) + np.eye(3) * 0.5
    for vec, lam in [(np.ones(3), 0.0), (np.array([1.0, -1.0, 0.0]), 0.5)]:
        assert np.allclose(m @ vec, lam * vec, atol=1e-15)
    evals = hermitian_eigenvalues(m)
    assert np.allclose(evals, [0.0, 0.5, 0.5], atol=1e-12)


def test_eigenvalues_sum_and_conjugation_invariance():
    g = Generator(Philox(key=np.array([5, 0], dtype=np.uint64)))
    for _ in range(50):
        n = int(g.integers(2, 7))
        a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        h = 0.5 * (a + a.conj().T)
        evals = hermitian_eigenvalues(h)
        assert abs(evals.sum() - np.trace(h).real) < 1e-10
        perm = np.eye(n)[g.permutation(n)]
        evals_p = hermitian_eigenvalues(perm @ h @ perm.T)
        assert np.allclose(evals, evals_p, atol=1e-10)


def test_eigenvalues_characteristic_residual():
    g = Generator(Philox(key=np.array([6, 0], dtype=np.uint64)))
    for n in range(2, 9):
        a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        h = 0.5 * (a + a.conj().T)
        h /= np.linalg.norm(h)
        for lam in hermitian_eigenvalues(h):
            assert abs(np.linalg.det(h - lam * np.eye(n))) < 1e-9


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 0.0])):
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("error")
            hermitian_eigenvalues(bad)


def test_validators_reject_huge_finite_input_without_warnings():
    # H - H^H and the sum of p overflow to inf; that must read as a failed
    # check, not as a RuntimeWarning first
    huge = ((check_hermitian, [[0.0, 1e308], [-1e308, 0.0]]), (clamp_probabilities, [1e308, 1e308]))
    for check, bad in huge:
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("error")
            check(bad)
