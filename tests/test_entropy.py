import math
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.entropy import TINY, check_hermitian, eta, floored_log


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


def test_floored_log():
    g = Generator(Philox(key=np.array([7, 0], dtype=np.uint64)))
    x = np.concatenate([g.uniform(0.0, 1.0, 500), 10.0 ** g.uniform(-300.0, 300.0, 500), [np.nextafter(TINY, 1.0), 1.0]])
    x = x.reshape(2, 3, -1)
    assert np.array_equal(floored_log(x), np.log(x))  # bit for bit above TINY
    floor = np.array([-np.inf, -1.0, -1e-12, -5e-324, -0.0, 0.0, 5e-324, 1e-310, 2.2e-308, TINY, np.nan])
    assert np.array_equal(floored_log(floor), np.zeros(floor.size))


def test_validators_reject_huge_finite_input_without_warnings():
    # H - H^H overflows to inf; that must read as a failed check, not as a
    # RuntimeWarning first
    with pytest.raises(ValueError), warnings.catch_warnings():
        warnings.simplefilter("error")
        check_hermitian([[0.0, 1e308], [-1e308, 0.0]])
