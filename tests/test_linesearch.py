import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.linesearch import rotation_line_search


def _plain_sum(sq):
    return sq.sum(axis=-1)


@pytest.mark.parametrize("shape", [(30, 4, 7), (50, 3), (20, 1)])
def test_rotation_line_search_matches_closed_form(shape):
    # sum_c (K0 + K1 cos 2t + K2 sin 2t) is a sinusoid in 2t, whose minimum
    # is sum K0 - hypot(sum K1, sum K2), at 2t = atan2(sum K2, sum K1) + pi
    g = Generator(Philox(key=np.array([58, len(shape)], dtype=np.uint64)))
    K0, K1, K2 = (g.standard_normal(shape) for _ in range(3))
    t, values, current = rotation_line_search(K0, K1, K2, _plain_sum)
    k0, k1, k2 = K0.sum(axis=-1), K1.sum(axis=-1), K2.sum(axis=-1)
    assert t.shape == values.shape == current.shape == shape[:-1]
    assert np.max(np.abs(values - (k0 - np.hypot(k1, k2)))) < 1e-12
    assert np.max(np.abs(np.cos(2.0 * t - np.arctan2(k2, k1) - math.pi) - 1.0)) < 1e-12
    assert np.array_equal(current, _plain_sum(K0 + K1))

